package spider

import (
	"context"
	"testing"
	"time"
)

func TestFacadeQuickstartPath(t *testing.T) {
	world, mob := AmherstDrive(1).Build()
	client := world.AddClient(
		Defaults(SingleChannelMultiAP, []ChannelSlice{{Channel: 1}}), mob)
	world.Run(3 * time.Minute)
	if client.Rec.TotalBytes() == 0 {
		t.Fatal("quickstart drive transferred nothing")
	}
}

func TestFacadeCityPath(t *testing.T) {
	spec := CityGrid(1, 60, 6)
	spec.AreaW, spec.AreaH = 1200, 600
	city := NewCity(spec, Defaults(MultiChannelMultiAP, EqualSchedule(200*time.Millisecond, 1, 6, 11)), 0)
	if err := city.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, c := range city.Clients() {
		bytes += c.Rec.TotalBytes()
	}
	if city.Layout.NTiles < 2 || len(city.Clients()) != 6 || bytes == 0 {
		t.Fatalf("%d tiles, %d clients, %d bytes: want a tiled city that moves data",
			city.Layout.NTiles, len(city.Clients()), bytes)
	}
}

func TestFacadeModelPath(t *testing.T) {
	p := PaperJoinParams(10 * time.Second)
	if v := p.JoinProb(0.5, 4*time.Second); v <= 0 || v > 1 {
		t.Fatalf("JoinProb = %v", v)
	}
	s := Optimize(OptimizeInput{
		Join:     p,
		Channels: []ChannelOffer{{JoinedKbps: 0.5 * BwKbps}, {AvailKbps: 0.5 * BwKbps}},
		T:        10 * time.Second,
		Step:     0.05,
	})
	if s.AggregateKbps <= 0 {
		t.Fatal("optimizer returned nothing")
	}
	ds := DividingSpeed(p, []ChannelOffer{{JoinedKbps: 0.5 * BwKbps}, {AvailKbps: 0.5 * BwKbps}},
		100, 1, 40, 1)
	if ds < 1 || ds > 40 {
		t.Fatalf("dividing speed %v", ds)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) < 17 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	res, err := RunExperiment("fig3", ExperimentOptions{Seed: 1, Scale: 0.2})
	if err != nil || res.String() == "" {
		t.Fatalf("fig3: %v", err)
	}
}

func TestFacadeUserTrace(t *testing.T) {
	tr := GenerateUserTrace(UserTraceSpec{Seed: 2, Users: 10, Day: time.Hour})
	if len(tr.Flows) == 0 {
		t.Fatal("empty trace")
	}
}

func TestFacadeLabWorlds(t *testing.T) {
	w := StaticLab(1, 2000, 1, 11)
	if len(w.APs) != 2 {
		t.Fatal("static lab APs")
	}
	w2 := Indoor(1, 6, 4000)
	if len(w2.APs) != 1 {
		t.Fatal("indoor AP")
	}
	if DefaultRadio().Range != 100 {
		t.Fatal("default radio range")
	}
	c := Stock(EqualSchedule(200*time.Millisecond, 1, 6, 11))
	if c.UseLeaseCache {
		t.Fatal("stock config has the lease cache on")
	}
}

func TestFacadeWebWorkload(t *testing.T) {
	world := NewWorld(5, DefaultRadio())
	world.AddAP(APSpec{Pos: Point{X: 20}, Channel: 6, BackhaulKbps: 4000})
	c := world.AddClient(Defaults(SingleChannelSingleAP, []ChannelSlice{{Channel: 6}}), Static{})
	c.SetWorkload(DefaultWebWorkload())
	world.Run(90 * time.Second)
	if c.Web.PagesCompleted == 0 {
		t.Fatal("no pages fetched through the facade")
	}
}

func TestFacadeStopAndGo(t *testing.T) {
	spec := AmherstDrive(6)
	world, _ := spec.Build()
	sg := &StopAndGo{
		Route:     RectLoop(spec.LoopW, spec.LoopH),
		SpeedMS:   10,
		StopEvery: 250,
		StopDur:   15 * time.Second,
		Loop:      true,
		Seed:      6,
	}
	c := world.AddClient(Defaults(SingleChannelMultiAP, []ChannelSlice{{Channel: 1}}), sg)
	world.Run(4 * time.Minute)
	if c.Rec.TotalBytes() == 0 {
		t.Fatal("stop-and-go facade drive moved no data")
	}
}

func TestFacadeEnergyAccounting(t *testing.T) {
	world := NewWorld(7, DefaultRadio())
	world.AddAP(APSpec{Pos: Point{X: 20}, Channel: 6})
	c := world.AddClient(Defaults(SingleChannelSingleAP, []ChannelSlice{{Channel: 6}}), Static{})
	world.Run(time.Minute)
	rep := DefaultEnergyModel().Account(c.Driver.Airtime(), time.Minute)
	if rep.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if rep.Idle <= rep.Tx {
		t.Fatal("idle should dominate a one-minute association")
	}
}

func TestFacadeSelection(t *testing.T) {
	p := SelectionProblem{
		Candidates: []SelectionCandidate{
			{JoinProb: 0.9, JoinTime: time.Second, BandwidthKbps: 2000},
			{JoinProb: 0.5, JoinTime: 2 * time.Second, BandwidthKbps: 8000},
		},
		T: 20 * time.Second, Budget: 3 * time.Second, MaxAPs: 2,
	}
	_, exact := SelectExact(p)
	_, greedy := SelectGreedy(p)
	if exact <= 0 || greedy <= 0 || greedy > exact {
		t.Fatalf("exact=%v greedy=%v", exact, greedy)
	}
}

func TestFacadePcapCapture(t *testing.T) {
	world := NewWorld(8, DefaultRadio())
	cap := NewPcapCapture(world, 100)
	world.AddAP(APSpec{Pos: Point{X: 20}, Channel: 6})
	world.Run(2 * time.Second)
	if len(cap.Records) == 0 {
		t.Fatal("capture saw no beacons")
	}
}

func TestFacadeSweep(t *testing.T) {
	// The tutorial's §9 pattern: replicated mini-drives fanned out, with
	// per-replication seeds, identical at any worker count.
	run := func(workers int) []float64 {
		out, err := Sweep(context.Background(), workers, 3,
			func(_ context.Context, rep int) (float64, error) {
				world, mob := AmherstDrive(TaskSeed(5, "facade-sweep", rep)).Build()
				c := world.AddClient(Defaults(SingleChannelMultiAP,
					[]ChannelSlice{{Channel: 1}}), mob)
				world.Run(30 * time.Second)
				return c.Rec.ThroughputKBps(30 * time.Second), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("rep %d differs across worker counts: %v vs %v", i, seq[i], par[i])
		}
	}
	if TaskSeed(5, "facade-sweep", 0) == TaskSeed(5, "facade-sweep", 1) {
		t.Fatal("TaskSeed ignored the replication index")
	}
	if SweepRNG(5, "a", 0).Int63() == SweepRNG(5, "b", 0).Int63() {
		t.Fatal("SweepRNG ignored the study id")
	}
}
