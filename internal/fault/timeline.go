package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one scripted fault in a timeline.
//
// Textual form: class[:target]@at[+dur][=param] where at/dur are Go
// durations ("90s", "1m30s") and param is a class-specific number
// (probability for dhcp-*/reset-fail/burst-loss, extra milliseconds
// for latency-spike). Entries join with ';'.
//
//	ap-crash:0@90s+10s; burst-loss:6@2m+30s=0.5; dhcp-drop@1m+20s=0.3
type Entry struct {
	Class    string
	Target   int // AP/link index or channel; -1 = every attached target
	At       time.Duration
	Dur      time.Duration
	Param    float64
	HasParam bool
}

// String renders the entry in canonical parseable form.
func (e Entry) String() string {
	var b strings.Builder
	b.WriteString(e.Class)
	if e.Target >= 0 {
		fmt.Fprintf(&b, ":%d", e.Target)
	}
	fmt.Fprintf(&b, "@%s", e.At)
	if e.Dur > 0 {
		fmt.Fprintf(&b, "+%s", e.Dur)
	}
	if e.HasParam {
		fmt.Fprintf(&b, "=%s", strconv.FormatFloat(e.Param, 'g', -1, 64))
	}
	return b.String()
}

// Timeline is a sorted fault script.
type Timeline []Entry

// String renders the timeline in canonical form: ParseTimeline of the
// result yields an equal timeline.
func (t Timeline) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// classInfo describes per-class timeline validation.
var classInfo = map[string]struct {
	needsDur   bool   // episode classes need a +dur window
	paramKind  string // "", "prob", "ms"
	needsParam bool
	targetKind string // "ap", "link", "channel", "none"
}{
	ClassAPCrash:       {true, "", false, "ap"},
	ClassBeaconSilence: {true, "", false, "ap"},
	ClassDHCPDrop:      {true, "prob", false, "ap"},
	ClassDHCPNak:       {true, "prob", false, "ap"},
	ClassDHCPSlow:      {true, "prob", false, "ap"},
	ClassBlackhole:     {true, "", false, "link"},
	ClassLatencySpike:  {true, "ms", false, "link"},
	ClassBurstLoss:     {true, "prob", true, "channel"},
	ClassResetFail:     {true, "prob", true, "none"},
}

// Resolve interprets a -chaos flag value: a profile name ("off",
// "mild", "aggressive") or a timeline script. Returns the resolved
// config or timeline plus a canonical display name.
func Resolve(spec string) (Config, Timeline, string, error) {
	if cfg, ok := Profile(spec); ok {
		name := spec
		if name == "" {
			name = "off"
		}
		return cfg, nil, name, nil
	}
	tl, err := ParseTimeline(spec)
	if err != nil {
		return Config{}, nil, "", fmt.Errorf("fault: spec %q is neither a profile nor a timeline: %w", spec, err)
	}
	return Config{}, tl, "timeline:" + tl.String(), nil
}

// ParseTimeline parses a semicolon-separated fault script. Empty input
// yields an empty timeline. Entries come back sorted by (At, Class,
// Target) so equal scripts in any order compare equal.
func ParseTimeline(s string) (Timeline, error) {
	var t Timeline
	for _, raw := range strings.Split(s, ";") {
		item := strings.TrimSpace(raw)
		if item == "" {
			continue
		}
		e, err := parseEntry(item)
		if err != nil {
			return nil, fmt.Errorf("fault: entry %q: %w", item, err)
		}
		t = append(t, e)
	}
	sort.SliceStable(t, func(i, j int) bool {
		a, b := t[i], t[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Target < b.Target
	})
	return t, nil
}

func parseEntry(item string) (Entry, error) {
	e := Entry{Target: -1}
	head, rest, ok := strings.Cut(item, "@")
	if !ok {
		return e, fmt.Errorf("missing @time")
	}
	cls, tgt, hasTgt := strings.Cut(head, ":")
	cls = strings.TrimSpace(cls)
	info, known := classInfo[cls]
	if !known {
		return e, fmt.Errorf("unknown class %q", cls)
	}
	e.Class = cls
	if hasTgt {
		if info.targetKind == "none" {
			return e, fmt.Errorf("%s takes no target", cls)
		}
		n, err := strconv.Atoi(strings.TrimSpace(tgt))
		if err != nil || n < 0 {
			return e, fmt.Errorf("bad target %q", tgt)
		}
		e.Target = n
	} else if info.targetKind == "channel" {
		return e, fmt.Errorf("%s requires an explicit :channel target", cls)
	}

	rest, param, hasParam := strings.Cut(rest, "=")
	at, dur, hasDur := strings.Cut(rest, "+")
	var err error
	e.At, err = time.ParseDuration(strings.TrimSpace(at))
	if err != nil || e.At < 0 {
		return e, fmt.Errorf("bad time %q", at)
	}
	if hasDur {
		e.Dur, err = time.ParseDuration(strings.TrimSpace(dur))
		if err != nil || e.Dur <= 0 {
			return e, fmt.Errorf("bad duration %q", dur)
		}
	} else if info.needsDur {
		return e, fmt.Errorf("%s requires a +duration window", cls)
	}
	if hasParam {
		if info.paramKind == "" {
			return e, fmt.Errorf("%s takes no =param", cls)
		}
		e.Param, err = strconv.ParseFloat(strings.TrimSpace(param), 64)
		if err != nil || math.IsNaN(e.Param) || math.IsInf(e.Param, 0) {
			return e, fmt.Errorf("bad param %q", param)
		}
		switch info.paramKind {
		case "prob":
			if e.Param < 0 || e.Param > 1 {
				return e, fmt.Errorf("probability %v out of [0,1]", e.Param)
			}
		case "ms":
			if e.Param < 0 {
				return e, fmt.Errorf("negative latency %v", e.Param)
			}
		}
		e.HasParam = true
	} else if info.needsParam {
		return e, fmt.Errorf("%s requires an =param", cls)
	}
	return e, nil
}

// ScheduleTimeline arms every entry on the kernel. Call after all
// targets are attached; entries whose target index does not resolve
// count as Skipped rather than failing the run.
func (in *Injector) ScheduleTimeline(t Timeline) {
	if len(t) > 0 {
		// Scripted entries live in closures the checkpoint cannot reify;
		// an injector that ran a timeline refuses to export.
		in.timelineUsed = true
	}
	for _, e := range t {
		e := e
		in.kernel.At(e.At, func() { in.applyEntry(e) })
	}
}

func (in *Injector) applyEntry(e Entry) {
	until := in.kernel.Now() + e.Dur
	switch e.Class {
	case ClassAPCrash:
		in.eachAP(e, func(ap apTarget) {
			if ap.Down() {
				return
			}
			in.recordFault(e.Class)
			ap.Crash()
			in.kernel.At(until, ap.Restart)
		})
	case ClassBeaconSilence:
		in.eachAP(e, func(ap apTarget) {
			in.recordFault(e.Class)
			ap.SetBeaconMute(true)
			in.kernel.At(until, func() { ap.SetBeaconMute(false) })
		})
	case ClassDHCPDrop, ClassDHCPNak, ClassDHCPSlow:
		prob := 1.0
		if e.HasParam {
			prob = e.Param
		}
		in.eachAPIdx(e, func(idx int) {
			c := in.aps[idx].DHCPServer().ChaosConfig()
			switch e.Class {
			case ClassDHCPDrop:
				c.Drop = prob
			case ClassDHCPNak:
				c.Nak = prob
			case ClassDHCPSlow:
				c.SlowProb = prob
				if c.SlowThink == nil {
					c.SlowThink = in.cfg.DHCPSlowThink
				}
			}
			in.setServerChaos(idx, c)
			in.kernel.At(until, func() { in.setServerChaos(idx, in.baseChaos()) })
		})
	case ClassBlackhole:
		in.eachLink(e, func(l linkTarget) {
			in.recordFault(e.Class)
			l.SetBlackhole(true)
			in.kernel.At(until, func() { l.SetBlackhole(false) })
		})
	case ClassLatencySpike:
		extra := 300 * time.Millisecond
		if e.HasParam {
			extra = time.Duration(e.Param * float64(time.Millisecond))
		}
		in.eachLink(e, func(l linkTarget) {
			in.recordFault(e.Class)
			l.SetFaultLatency(extra)
			in.kernel.At(until, func() { l.SetFaultLatency(0) })
		})
	case ClassBurstLoss:
		if in.medium == nil {
			in.classes[e.Class].Skipped++
			return
		}
		in.recordFault(e.Class)
		in.medium.SetBurstLoss(e.Target, e.Param)
		in.kernel.At(until, func() { in.medium.SetBurstLoss(e.Target, 0) })
	case ClassResetFail:
		if !in.driver {
			in.classes[e.Class].Skipped++
			return
		}
		// ResetDelay records actual stuck resets; the window only raises
		// the probability.
		in.armResetFaults()
		in.sc.ResetWindowProb = e.Param
		in.sc.ResetWindowUntil = until
	}
}

// apTarget/linkTarget keep applyEntry testable against the real types.
type apTarget interface {
	Down() bool
	Crash()
	Restart()
	SetBeaconMute(bool)
}

type linkTarget interface {
	SetBlackhole(bool)
	SetFaultLatency(time.Duration)
}

func (in *Injector) eachAPIdx(e Entry, fn func(idx int)) {
	if e.Target >= 0 {
		if e.Target >= len(in.aps) {
			in.classes[e.Class].Skipped++
			return
		}
		fn(e.Target)
		return
	}
	if len(in.aps) == 0 {
		in.classes[e.Class].Skipped++
		return
	}
	for i := range in.aps {
		fn(i)
	}
}

func (in *Injector) eachAP(e Entry, fn func(apTarget)) {
	in.eachAPIdx(e, func(i int) { fn(in.aps[i]) })
}

func (in *Injector) eachLink(e Entry, fn func(linkTarget)) {
	if e.Target >= 0 {
		if e.Target >= len(in.links) {
			in.classes[e.Class].Skipped++
			return
		}
		fn(in.links[e.Target])
		return
	}
	if len(in.links) == 0 {
		in.classes[e.Class].Skipped++
		return
	}
	for _, l := range in.links {
		fn(l)
	}
}
