// Package usertrace synthesizes the flow-level demand trace used in the
// paper's §4.7 usability study. The original dataset — one day of TCP
// flows from 161 users of a 25-node downtown mesh (128,587 connections,
// 13.6 M packets, 68% HTTP) — is not distributable, so this package
// generates a statistically similar substitute: heavy-tailed TCP
// connection durations (most interactive-short, a long tail of bulk
// transfers) and heavy-tailed inter-connection gaps.
//
// What §4.7 needs from the data is only the two distribution shapes that
// Figs. 13 and 14 compare against Spider's supply: connection durations
// concentrated under tens of seconds, and inter-connection times mostly
// short with a tail of long idles.
package usertrace

import (
	"math"
	"math/rand"
	"time"
)

// Flow is one user TCP connection.
type Flow struct {
	User     int
	Start    time.Duration
	Duration time.Duration
	Bytes    int64
	HTTP     bool
}

// Spec parameterizes the synthetic trace.
type Spec struct {
	Seed  int64
	Users int
	// Day is the observation window.
	Day time.Duration
	// DurMu/DurSigma parameterize the log-normal connection duration
	// in log-seconds. Defaults put the median near 4 s with a tail past
	// 100 s, matching the x-range of Fig 13.
	DurMu, DurSigma float64
	// GapMu/GapSigma parameterize the log-normal inter-connection gap.
	// Defaults put the median near 20 s with a tail past 300 s (Fig 14).
	GapMu, GapSigma float64
	// HTTPShare is the fraction of flows to the HTTP port (paper: 68%).
	HTTPShare float64
}

// DefaultSpec mirrors the paper's dataset scale (reduced user count for
// test speed; distributions are per-user so the shape is unaffected).
func DefaultSpec(seed int64) Spec {
	return Spec{
		Seed:      seed,
		Users:     161,
		Day:       24 * time.Hour,
		DurMu:     1.4,
		DurSigma:  1.3,
		GapMu:     3.0,
		GapSigma:  1.6,
		HTTPShare: 0.68,
	}
}

func (s Spec) withDefaults() Spec {
	d := DefaultSpec(s.Seed)
	if s.Users <= 0 {
		s.Users = d.Users
	}
	if s.Day <= 0 {
		s.Day = d.Day
	}
	if s.DurMu == 0 && s.DurSigma == 0 {
		s.DurMu, s.DurSigma = d.DurMu, d.DurSigma
	}
	if s.GapMu == 0 && s.GapSigma == 0 {
		s.GapMu, s.GapSigma = d.GapMu, d.GapSigma
	}
	if s.HTTPShare <= 0 {
		s.HTTPShare = d.HTTPShare
	}
	return s
}

// Trace is a generated day of user flows.
type Trace struct {
	Flows []Flow
}

// Generate builds the synthetic trace deterministically from the seed.
func Generate(spec Spec) *Trace {
	spec = spec.withDefaults()
	r := rand.New(rand.NewSource(spec.Seed))
	tr := &Trace{}
	for u := 0; u < spec.Users; u++ {
		// Each user is active for a random sub-window of the day.
		activeStart := time.Duration(r.Float64() * float64(spec.Day) * 0.5)
		activeLen := time.Duration((0.05 + 0.45*r.Float64()) * float64(spec.Day))
		t := activeStart
		for t < activeStart+activeLen && t < spec.Day {
			dur := logNormalDur(r, spec.DurMu, spec.DurSigma, 30*time.Minute)
			bytes := int64(800*dur.Seconds()*1000) / 8 // ~800 kbps mean while active
			if bytes < 512 {
				bytes = 512
			}
			tr.Flows = append(tr.Flows, Flow{
				User:     u,
				Start:    t,
				Duration: dur,
				Bytes:    bytes,
				HTTP:     r.Float64() < spec.HTTPShare,
			})
			gap := logNormalDur(r, spec.GapMu, spec.GapSigma, 2*time.Hour)
			t += dur + gap
		}
	}
	return tr
}

func logNormalDur(r *rand.Rand, mu, sigma float64, cap time.Duration) time.Duration {
	v := math.Exp(mu + sigma*r.NormFloat64())
	d := time.Duration(v * float64(time.Second))
	if d > cap {
		d = cap
	}
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

// Durations returns every flow's duration (Fig 13 input).
func (t *Trace) Durations() []time.Duration {
	out := make([]time.Duration, len(t.Flows))
	for i, f := range t.Flows {
		out[i] = f.Duration
	}
	return out
}

// InterConnectionGaps returns the per-user gaps between consecutive
// flows (Fig 14 input).
func (t *Trace) InterConnectionGaps() []time.Duration {
	lastEnd := make(map[int]time.Duration)
	seen := make(map[int]bool)
	var out []time.Duration
	for _, f := range t.Flows { // flows are generated per user in order
		if seen[f.User] {
			gap := f.Start - lastEnd[f.User]
			if gap > 0 {
				out = append(out, gap)
			}
		}
		seen[f.User] = true
		if end := f.Start + f.Duration; end > lastEnd[f.User] {
			lastEnd[f.User] = end
		}
	}
	return out
}

// HTTPShare returns the observed fraction of HTTP flows.
func (t *Trace) HTTPShare() float64 {
	if len(t.Flows) == 0 {
		return 0
	}
	n := 0
	for _, f := range t.Flows {
		if f.HTTP {
			n++
		}
	}
	return float64(n) / float64(len(t.Flows))
}

// TotalBytes sums the trace volume.
func (t *Trace) TotalBytes() int64 {
	var sum int64
	for _, f := range t.Flows {
		sum += f.Bytes
	}
	return sum
}
