package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGeneratedAssemblyIsCurrent fails when the committed assembly is
// not what the committed generator emits, byte for byte.
func TestGeneratedAssemblyIsCurrent(t *testing.T) {
	committed, err := os.ReadFile("../keccakx8_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(generate(), committed) {
		t.Error("keccakx8_amd64.s is stale: run go generate ./internal/keccak")
	}
}
