package rbc_test

import (
	"testing"

	"rbcsalted"
)

// TestNewServerRefusesBadEngineConfig: a server runs only the real CPU
// engine, so any other Backend kind and a negative core count are
// refused before anything is opened.
func TestNewServerRefusesBadEngineConfig(t *testing.T) {
	for _, cfg := range []rbc.ServerConfig{
		{Backend: rbc.BackendKind(1)},
		{Backend: rbc.BackendKind(42)},
		{Cores: -1},
	} {
		if n, err := rbc.NewServer(cfg); err == nil {
			n.Close()
			t.Errorf("NewServer(Backend %d, Cores %d) accepted", cfg.Backend, cfg.Cores)
		}
	}
}
