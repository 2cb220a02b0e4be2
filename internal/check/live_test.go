package check

import (
	"context"
	"testing"
	"time"
)

// TestLiveChaos boots a real hided daemon with a fleet of real hidec
// clients on loopback sockets and drives the PR-4 chaos scenarios
// over the HTTP control plane: burst loss, AP power-cycle, liveness
// eviction, graceful drain. Every budget must hold.
func TestLiveChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos run takes seconds of wall clock")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunLive(ctx, LiveConfig{
		Clients: 12,
		Seed:    7,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	t.Log(res.Report())
	if !res.Passed() {
		for _, f := range res.Failures {
			t.Error(f)
		}
	}
	if res.ProbesSent == 0 || res.Clients != 12 {
		t.Fatalf("harness degenerate: %+v", res)
	}
	if res.Evictions != 1 {
		t.Errorf("%d liveness evictions recorded, want 1 (the killed client)", res.Evictions)
	}
	if res.DisassocsReceived != res.Clients-1 {
		t.Errorf("drain reached %d/%d surviving clients", res.DisassocsReceived, res.Clients-1)
	}
}
