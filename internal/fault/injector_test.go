package fault

import (
	"testing"
	"time"

	"spider/internal/backhaul"
	"spider/internal/sim"
)

// blackholeRun arms blackhole episodes on one link and returns the
// injected count plus the exact on/off toggle trace.
func blackholeRun(seed int64) (uint64, []string) {
	k := sim.NewKernel(seed)
	l := backhaul.NewLink(k, backhaul.Config{RateKbps: 1000, Latency: 10 * time.Millisecond, QueueBytes: 64 << 10})
	cfg := Config{
		BlackholeMTBF: 20 * time.Second,
		BlackholeDur:  sim.Uniform{Min: time.Second, Max: 5 * time.Second},
	}
	in := NewInjector(k, cfg, k.Seed())
	in.AttachLink(l, 0)
	var trace []string
	// Sample the link state at a fine grain to fingerprint the episode
	// schedule.
	var poll func()
	poll = func() {
		if l.ExportState().Blackhole {
			trace = append(trace, k.Now().String())
		}
		k.After(250*time.Millisecond, poll)
	}
	k.After(250*time.Millisecond, poll)
	k.Run(5 * time.Minute)
	return in.classes[ClassBlackhole].Injected, trace
}

func TestEpisodesDeterministic(t *testing.T) {
	n1, tr1 := blackholeRun(42)
	n2, tr2 := blackholeRun(42)
	if n1 == 0 {
		t.Fatal("no blackhole episodes injected in 5 minutes with a 20s MTBF")
	}
	if n1 != n2 || len(tr1) != len(tr2) {
		t.Fatalf("same seed diverged: %d/%d episodes, %d/%d samples", n1, n2, len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("trace diverged at %d: %s vs %s", i, tr1[i], tr2[i])
		}
	}
	n3, _ := blackholeRun(43)
	if n3 == n1 {
		// Counts can collide; the full trace almost never does.
		_, tr3 := blackholeRun(43)
		same := len(tr3) == len(tr1)
		if same {
			for i := range tr1 {
				if tr1[i] != tr3[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical episode schedules")
		}
	}
}

func TestZeroConfigSchedulesNothing(t *testing.T) {
	k := sim.NewKernel(7)
	l := backhaul.NewLink(k, backhaul.Config{RateKbps: 1000, Latency: 10 * time.Millisecond, QueueBytes: 64 << 10})
	in := NewInjector(k, Config{}, k.Seed())
	in.AttachLink(l, 0)
	before := k.Fired()
	k.Run(time.Minute)
	if fired := k.Fired() - before; fired != 0 {
		t.Fatalf("zero-config injector scheduled %d events", fired)
	}
	if in.TotalInjected() != 0 {
		t.Fatalf("zero-config injector injected %d faults", in.TotalInjected())
	}
}

func TestTimelineBlackholeApplies(t *testing.T) {
	k := sim.NewKernel(7)
	l := backhaul.NewLink(k, backhaul.Config{RateKbps: 1000, Latency: 10 * time.Millisecond, QueueBytes: 64 << 10})
	in := NewInjector(k, Config{}, k.Seed())
	tl, err := ParseTimeline("blackhole:0@10s+5s; latency-spike:0@20s+5s=250")
	if err != nil {
		t.Fatal(err)
	}
	in.AttachLink(l, 0)
	in.ScheduleTimeline(tl)
	check := func(at time.Duration, wantHole bool, wantLat time.Duration) {
		k.At(at, func() {
			if l.ExportState().Blackhole != wantHole {
				t.Errorf("at %v: blackholed=%v, want %v", at, l.ExportState().Blackhole, wantHole)
			}
			if l.ExportState().FaultLat != wantLat {
				t.Errorf("at %v: fault latency %v, want %v", at, l.ExportState().FaultLat, wantLat)
			}
		})
	}
	check(9*time.Second, false, 0)
	check(12*time.Second, true, 0)
	check(16*time.Second, false, 0)
	check(22*time.Second, false, 250*time.Millisecond)
	check(26*time.Second, false, 0)
	k.Run(time.Minute)
	if got := in.classes[ClassBlackhole].Injected; got != 1 {
		t.Fatalf("blackhole injected = %d, want 1", got)
	}
	if got := in.classes[ClassLatencySpike].Injected; got != 1 {
		t.Fatalf("latency-spike injected = %d, want 1", got)
	}
}

func TestTimelineSkipsUnresolvableTargets(t *testing.T) {
	k := sim.NewKernel(7)
	in := NewInjector(k, Config{}, k.Seed())
	tl, err := ParseTimeline("blackhole:3@10s+5s; ap-crash@10s+5s; burst-loss:6@10s+5s=0.5")
	if err != nil {
		t.Fatal(err)
	}
	in.ScheduleTimeline(tl) // nothing attached: every entry must skip
	k.Run(time.Minute)
	if in.TotalInjected() != 0 {
		t.Fatalf("injected %d faults with no targets attached", in.TotalInjected())
	}
	for _, class := range []string{ClassBlackhole, ClassAPCrash, ClassBurstLoss} {
		if in.classes[class].Skipped != 1 {
			t.Fatalf("%s skipped = %d, want 1", class, in.classes[class].Skipped)
		}
	}
}
