package backhaul

import (
	"testing"
	"time"

	"spider/internal/sim"
)

// carry sends size bytes one way and runs fn when they arrive, arming
// the delivery as a carrier set does; it reports whether the link took
// them.
func carry(k *sim.Kernel, l *Link, downstream bool, size int, fn func()) bool {
	at, ok := l.Send(downstream, size)
	if ok {
		k.FireAt(at, sim.Func(fn), 0)
	}
	return ok
}

func TestLatencyOnlyForSmallMessage(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, Config{RateKbps: 8000, Latency: 20 * time.Millisecond, QueueBytes: 1 << 20})
	var at time.Duration
	carry(k, l, true, 1000, func() { at = k.Now() })
	k.RunAll()
	// 1000B at 8 Mbps = 1ms + 20ms latency.
	want := 21 * time.Millisecond
	if at != want {
		t.Fatalf("arrival at %v, want %v", at, want)
	}
}

func TestRateShapingSerializes(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, Config{RateKbps: 800, Latency: time.Millisecond, QueueBytes: 1 << 20})
	var arrivals []time.Duration
	for i := 0; i < 3; i++ {
		carry(k, l, true, 1000, func() { arrivals = append(arrivals, k.Now()) })
	}
	k.RunAll()
	// Each 1000B at 800 kbps = 10ms serialization.
	want := []time.Duration{11, 21, 31}
	for i, w := range want {
		if arrivals[i] != w*time.Millisecond {
			t.Fatalf("arrival %d at %v, want %vms", i, arrivals[i], w)
		}
	}
}

func TestDirectionsIndependent(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, Config{RateKbps: 800, Latency: time.Millisecond, QueueBytes: 1 << 20})
	var down, up time.Duration
	carry(k, l, true, 1000, func() { down = k.Now() })
	carry(k, l, false, 1000, func() { up = k.Now() })
	k.RunAll()
	if down != up || down != 11*time.Millisecond {
		t.Fatalf("down=%v up=%v, want both 11ms (no cross-direction serialization)", down, up)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, Config{RateKbps: 100, Latency: time.Millisecond, QueueBytes: 2000})
	accepted := 0
	for i := 0; i < 100; i++ {
		if carry(k, l, true, 1500, func() {}) {
			accepted++
		}
	}
	if accepted >= 100 {
		t.Fatal("no drops despite tiny queue")
	}
	if l.st.DownDrops == 0 || l.st.DownDrops != uint64(100-accepted) {
		t.Fatalf("DownDrops=%d accepted=%d", l.st.DownDrops, accepted)
	}
	k.RunAll()
}

func TestThroughputMatchesRate(t *testing.T) {
	k := sim.NewKernel(1)
	rate := 2000 // kbps
	l := NewLink(k, Config{RateKbps: rate, Latency: 5 * time.Millisecond, QueueBytes: 1 << 20})
	delivered := 0
	const msgSize = 1500
	// Keep the pipe saturated: top the queue back up on each delivery.
	var inflight int
	var fill func()
	fill = func() {
		for inflight < 4 {
			if !carry(k, l, true, msgSize, func() {
				delivered += msgSize
				inflight--
				fill()
			}) {
				break
			}
			inflight++
		}
	}
	fill()
	k.Run(10 * time.Second)
	gotKbps := float64(delivered*8) / 10 / 1000
	if gotKbps < float64(rate)*0.95 || gotKbps > float64(rate)*1.05 {
		t.Fatalf("sustained %v kbps, want ~%d", gotKbps, rate)
	}
}

func TestQueueDelayReflectsBacklog(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, Config{RateKbps: 800, Latency: time.Millisecond, QueueBytes: 1 << 20})
	// A direction's queue delay is how long a byte entering it now waits
	// before transmission begins: its busy-until ledger less the clock.
	if l.st.DownBusyUntil > k.Now() {
		t.Fatal("idle link has queue delay")
	}
	carry(k, l, true, 1000, func() {}) // 10ms serialization
	if d := l.st.DownBusyUntil - k.Now(); d != 10*time.Millisecond {
		t.Fatalf("queue delay %v, want 10ms", d)
	}
	if l.st.UpBusyUntil > k.Now() {
		t.Fatal("uplink delayed by downlink")
	}
	k.RunAll()
}

func TestDefaultsApplied(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, Config{})
	if l.cfg.RateKbps != 2000 || l.cfg.Latency != 20*time.Millisecond {
		t.Fatalf("defaults = %+v", l.cfg)
	}
}

func TestNegativeSizeTreatedAsZero(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, DefaultConfig())
	fired := false
	carry(k, l, true, -10, func() { fired = true })
	k.RunAll()
	if !fired {
		t.Fatal("negative-size message never delivered")
	}
}

func TestByteCounters(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, DefaultConfig())
	carry(k, l, true, 100, func() {})
	carry(k, l, false, 200, func() {})
	k.RunAll()
	if l.st.DownBytes != 100 || l.st.UpBytes != 200 || l.st.DownDelivered != 1 || l.st.UpDelivered != 1 {
		t.Fatalf("counters: %+v", *l)
	}
}
