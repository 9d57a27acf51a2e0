package radio

import (
	"testing"
	"time"
)

// TestBurstLossDropsFrames: full burst loss on the channel blocks every
// delivery; clearing it restores delivery; other channels are
// unaffected.
func TestBurstLossDropsFrames(t *testing.T) {
	cfg := losslessCfg()
	cfg.DataRetryLimit = 0
	k, m, a, b, _, cb := newPair(t, cfg, 50)

	m.SetBurstLoss(6, 1)
	if got := m.burst[6]; got != 1 {
		t.Fatalf("burst loss on 6 = %v, want 1", got)
	}
	if m.burst[11] != 0 {
		t.Fatal("burst loss bled onto another channel")
	}
	for i := 0; i < 20; i++ {
		a.Send(dataFrame(a, b))
		k.Run(k.Now() + 50*time.Millisecond)
	}
	if len(cb.frames) != 0 {
		t.Fatalf("full burst loss delivered %d frames", len(cb.frames))
	}

	m.SetBurstLoss(6, 0)
	if m.burst[6] != 0 {
		t.Fatal("clearing burst loss failed")
	}
	a.Send(dataFrame(a, b))
	k.Run(k.Now() + time.Second)
	if len(cb.frames) != 1 {
		t.Fatalf("after clearing burst loss got %d frames, want 1", len(cb.frames))
	}
}

// TestBurstLossIsAdditive: the episode boost adds to the base loss
// pattern and saturates at 1.
func TestBurstLossIsAdditive(t *testing.T) {
	cfg := losslessCfg()
	cfg.Loss = 0.2
	cfg.DataRetryLimit = 0
	k, m, a, b, _, cb := newPair(t, cfg, 10)
	// Base loss 0.2 at close range; +0.9 saturates the probability.
	m.SetBurstLoss(6, 0.9)
	for i := 0; i < 30; i++ {
		a.Send(dataFrame(a, b))
		k.Run(k.Now() + 50*time.Millisecond)
	}
	if len(cb.frames) != 0 {
		t.Fatalf("saturated loss delivered %d frames", len(cb.frames))
	}
}
