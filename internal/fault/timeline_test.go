package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParseTimelineRoundTrip(t *testing.T) {
	cases := []string{
		"ap-crash:0@90s+10s",
		"ap-crash@1m30s+5s; beacon-silence:2@10s+3s",
		"dhcp-drop@1m+20s=0.3; dhcp-nak:1@2m+10s=0.5; dhcp-slow@3m+30s=0.25",
		"blackhole:0@45s+12s; latency-spike@1m+8s=250",
		"burst-loss:6@2m+30s=0.5",
		"reset-fail@10s+1m=0.4",
		"", "  ;  ; ",
	}
	for _, src := range cases {
		tl, err := ParseTimeline(src)
		if err != nil {
			t.Fatalf("ParseTimeline(%q): %v", src, err)
		}
		canon := tl.String()
		tl2, err := ParseTimeline(canon)
		if err != nil {
			t.Fatalf("reparse of canonical %q: %v", canon, err)
		}
		if canon != tl2.String() {
			t.Fatalf("canonical form unstable: %q -> %q", canon, tl2.String())
		}
		if len(tl) != len(tl2) {
			t.Fatalf("entry count changed across round-trip: %d vs %d", len(tl), len(tl2))
		}
		for i := range tl {
			if tl[i] != tl2[i] {
				t.Fatalf("entry %d changed: %+v vs %+v", i, tl[i], tl2[i])
			}
		}
	}
}

func TestParseTimelineSorts(t *testing.T) {
	tl, err := ParseTimeline("blackhole:1@2m+5s; ap-crash@30s+5s; ap-crash:0@30s+5s")
	if err != nil {
		t.Fatal(err)
	}
	if tl[0].At != 30*time.Second || tl[0].Class != ClassAPCrash || tl[0].Target != -1 {
		t.Fatalf("unexpected order: %v", tl)
	}
	if tl[1].Target != 0 || tl[2].Class != ClassBlackhole {
		t.Fatalf("unexpected order: %v", tl)
	}
}

func TestParseTimelineErrors(t *testing.T) {
	bad := []string{
		"ap-crash",                // missing @time
		"warp-core@1s+1s",         // unknown class
		"ap-crash@1s",             // missing duration window
		"ap-crash:x@1s+1s",        // bad target
		"ap-crash:-1@1s+1s",       // negative target
		"ap-crash@1s+1s=0.5",      // class takes no param
		"dhcp-drop@1s+1s=1.5",     // probability out of range
		"latency-spike@1s+1s=-20", // negative latency
		"burst-loss@1s+1s=0.5",    // burst-loss needs :channel
		"burst-loss:6@1s+1s",      // burst-loss needs =prob
		"reset-fail:0@1s+1s=0.5",  // reset-fail takes no target
		"reset-fail@1s+1s",        // reset-fail needs =prob
		"ap-crash@notatime+1s",    // bad time
		"ap-crash@1s+0s",          // zero duration
	}
	for _, src := range bad {
		if _, err := ParseTimeline(src); err == nil {
			t.Errorf("ParseTimeline(%q) unexpectedly succeeded", src)
		}
	}
}

func TestProfiles(t *testing.T) {
	for _, name := range []string{"", "off", "none"} {
		cfg, ok := Profile(name)
		if !ok || cfg.Enabled() {
			t.Fatalf("Profile(%q) = enabled %v, ok %v; want disabled, true", name, cfg.Enabled(), ok)
		}
	}
	for _, name := range []string{"mild", "aggressive"} {
		cfg, ok := Profile(name)
		if !ok || !cfg.Enabled() {
			t.Fatalf("Profile(%q) should be an enabled profile", name)
		}
	}
	if _, ok := Profile("ap-crash:0@1s+1s"); ok {
		t.Fatal("timeline script must not resolve as a profile")
	}
}

func TestResolve(t *testing.T) {
	if _, tl, name, err := Resolve("aggressive"); err != nil || tl != nil || name != "aggressive" {
		t.Fatalf("Resolve(aggressive) = tl %v name %q err %v", tl, name, err)
	}
	_, tl, name, err := Resolve("ap-crash:0@90s+10s")
	if err != nil || len(tl) != 1 || !strings.HasPrefix(name, "timeline:") {
		t.Fatalf("Resolve(timeline) = tl %v name %q err %v", tl, name, err)
	}
	if _, _, _, err := Resolve("definitely-not-a-thing"); err == nil {
		t.Fatal("Resolve of garbage should fail")
	}
}

func FuzzParseTimeline(f *testing.F) {
	f.Add("ap-crash:0@90s+10s")
	f.Add("dhcp-drop@1m+20s=0.3; burst-loss:6@2m+30s=0.5")
	f.Add("reset-fail@10s+1m=0.4")
	f.Add("latency-spike@1m+8s=250; blackhole:0@45s+12s")
	f.Add(";;;@+=")
	f.Fuzz(func(t *testing.T, src string) {
		tl, err := ParseTimeline(src)
		if err != nil {
			return
		}
		// Canonical form must round-trip to an identical timeline.
		canon := tl.String()
		tl2, err := ParseTimeline(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q fails to parse: %v", canon, src, err)
		}
		if len(tl) != len(tl2) {
			t.Fatalf("round-trip changed entry count: %q -> %q", src, canon)
		}
		for i := range tl {
			if tl[i] != tl2[i] {
				t.Fatalf("round-trip changed entry %d: %+v vs %+v", i, tl[i], tl2[i])
			}
		}
	})
}
