package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServerLinksNoModels holds the server to the one engine that runs:
// the paper's modelled platforms and the planner over them are a
// reproduction library, so none of their packages may be linked into
// rbc-server.
func TestServerLinksNoModels(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	deps := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		deps[pkg] = true
	}
	for _, model := range []string{"rbcsalted/internal/device", "rbcsalted/internal/plan", "rbcsalted/internal/bitslice"} {
		if deps[model] {
			t.Errorf("rbc-server links %s", model)
		}
	}
}
