package expt

import (
	"fmt"
	"time"

	"spider/internal/model"
	"spider/internal/sweep"
)

func init() {
	register("fig2", func(o Options) (fmt.Stringer, error) { return Fig2(o), nil })
	register("fig3", func(o Options) (fmt.Stringer, error) { return Fig3(o), nil })
	register("fig4", func(o Options) (fmt.Stringer, error) { return Fig4(o), nil })
}

// Fig2 reproduces Figure 2: join success probability as a function of
// the fraction of time spent on the AP's channel — the model (Eq. 7)
// against a Monte Carlo simulation under the same assumptions.
// Parameters are the paper's: D=500 ms, t=4 s, βmin=500 ms,
// βmax ∈ {5 s, 10 s}, w=7 ms, c=100 ms, h=10%.
func Fig2(o Options) Figure {
	o = o.withDefaults()
	trials := o.scaleN(10_000, 500)
	t := 4 * time.Second
	fig := Figure{
		ID:     "fig2",
		Title:  "Probability of join success vs fraction of time on channel",
		XLabel: "fraction of time on channel",
		YLabel: "probability of join success",
	}
	bmaxes := []time.Duration{5 * time.Second, 10 * time.Second}
	type pair struct{ mod, simu Series }
	got := fanOut(o, len(bmaxes), func(i int) pair {
		bmax := bmaxes[i]
		p := model.PaperJoinParams(bmax)
		var mod, simu Series
		mod.Name = fmt.Sprintf("Model (βmax=%ds)", int(bmax.Seconds()))
		simu.Name = fmt.Sprintf("Simulation (βmax=%ds)", int(bmax.Seconds()))
		// The Monte Carlo stream is derived per βmax, never shared.
		rng := sweep.RNG(o.Seed, "fig2", i)
		for f := 0.05; f <= 1.0+1e-9; f += 0.05 {
			mod.Points = append(mod.Points, Point{X: f, Y: p.JoinProb(f, t)})
			simu.Points = append(simu.Points, Point{X: f, Y: p.SimulateJoinProb(rng, f, t, trials)})
		}
		return pair{mod: mod, simu: simu}
	})
	for _, g := range got {
		fig.Series = append(fig.Series, g.mod, g.simu)
	}
	return fig
}

// Fig3 reproduces Figure 3: join success probability as a function of
// the AP's maximum response time βmax, for several channel fractions and
// with/without switching delay.
func Fig3(o Options) Figure {
	o = o.withDefaults()
	fig := Figure{
		ID:     "fig3",
		Title:  "Probability of join success vs maximum join time",
		XLabel: "βmax (s)",
		YLabel: "probability of join success",
	}
	type cfg struct {
		f    float64
		w    time.Duration
		name string
	}
	cfgs := []cfg{
		{0.10, 0, "fi=.10 (w=0 ms)"},
		{0.10, 7 * time.Millisecond, "fi=.10"},
		{0.25, 7 * time.Millisecond, "fi=.25"},
		{0.40, 7 * time.Millisecond, "fi=.40"},
		{0.50, 7 * time.Millisecond, "fi=.50"},
		{0.50, 0, "fi=.50 (w=0 ms)"},
	}
	for _, c := range cfgs {
		s := Series{Name: c.name}
		for bs := 0.5; bs <= 10+1e-9; bs += 0.5 {
			p := model.PaperJoinParams(time.Duration(bs * float64(time.Second)))
			p.W = c.w
			s.Points = append(s.Points, Point{X: bs, Y: p.JoinProb(c.f, 4*time.Second)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig4Result bundles the three offered-bandwidth scenarios of Figure 4.
type Fig4Result struct {
	Scenarios []Figure
	// DividingSpeeds per scenario (m/s): below it, switching pays.
	DividingSpeeds []float64
}

// String renders all three panels and the dividing speeds.
func (r Fig4Result) String() string {
	out := ""
	for i, f := range r.Scenarios {
		out += f.String()
		out += fmt.Sprintf("   dividing speed ≈ %.1f m/s\n", r.DividingSpeeds[i])
	}
	return out
}

// Figures returns the three scenario panels.
func (r Fig4Result) Figures() []Figure { return r.Scenarios }

// Fig4 reproduces Figure 4: the optimal per-channel bandwidth extracted
// at each speed for the three offered-bandwidth splits, using the
// Eqs. 8–10 optimization with βmax=10 s, βmin=500 ms and 100 m range.
// The paper's conclusion: every scenario has a dividing speed, below
// ~10 m/s for most, above which all time should go to one channel.
func Fig4(o Options) Fig4Result {
	o = o.withDefaults()
	join := model.PaperJoinParams(10 * time.Second)
	speeds := []float64{2.5, 3.3, 5, 6.6, 10, 20}
	step := 0.02
	if o.Scale < 0.5 {
		step = 0.05
	}
	splits := []struct {
		name   string
		joined float64 // share of Bw already joined on channel 1
		avail  float64 // share available (join required) on channel 2
	}{
		{"(25%,75%)", 0.25, 0.75},
		{"(50%,50%)", 0.50, 0.50},
		{"(75%,25%)", 0.75, 0.25},
	}
	var res Fig4Result
	for _, sp := range splits {
		chans := []model.ChannelOffer{
			{JoinedKbps: sp.joined * model.BwKbps},
			{AvailKbps: sp.avail * model.BwKbps},
		}
		pts := model.SweepSpeeds(join, chans, model.WiFiRangeM, speeds, step)
		fig := Figure{
			ID:     "fig4",
			Title:  "Max aggregated bandwidth per channel vs speed, offered " + sp.name,
			XLabel: "speed (m/s)",
			YLabel: "bandwidth (kbps)",
			Series: []Series{{Name: "ch1 bw"}, {Name: "ch2 bw"}},
		}
		for _, p := range pts {
			fig.Series[0].Points = append(fig.Series[0].Points, Point{X: p.SpeedMS, Y: p.Schedule.PerChannelKbps[0]})
			fig.Series[1].Points = append(fig.Series[1].Points, Point{X: p.SpeedMS, Y: p.Schedule.PerChannelKbps[1]})
		}
		res.Scenarios = append(res.Scenarios, fig)
		res.DividingSpeeds = append(res.DividingSpeeds,
			model.DividingSpeed(join, chans, model.WiFiRangeM, 1, 40, 0.5))
	}
	return res
}
