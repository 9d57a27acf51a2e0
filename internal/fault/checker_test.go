package fault

import (
	"strings"
	"testing"
	"time"

	"spider/internal/core"
	"spider/internal/geo"
	"spider/internal/mac"
	"spider/internal/radio"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// nopHost is a driver host that ignores every report.
type nopHost struct{}

func (nopHost) Connected(*core.Iface)                     {}
func (nopHost) Disconnected(*core.Iface)                  {}
func (nopHost) AssocResult(wifi.Addr, mac.AssocResult)    {}
func (nopHost) JoinResult(wifi.Addr, bool, time.Duration) {}
func (nopHost) Downlink(wifi.Addr, *wifi.DataBody)        {}
func (nopHost) ResetDelay() time.Duration                 { return 0 }

// A timer that survives an interface's teardown is recorded in the
// driver's invariant set as core.teardown.timer-leak; the checker
// watches that set, so the leak fails the run under its name.
func TestCheckerReportsTimerLeak(t *testing.T) {
	k := sim.NewKernel(1)
	m := radio.NewMedium(k, radio.Defaults())
	cfg := core.SpiderDefaults(core.SingleChannelSingleAP, []core.ChannelSlice{{Channel: 6}})
	d := core.NewDriver(m, cfg, wifi.NewAddr(1, 1), geo.Static{}, nopHost{})
	chk := NewChecker(k)
	chk.AttachDriver(d, "driver")
	if err := chk.Verify(); err != nil {
		t.Fatalf("a clean driver fails the checker: %v", err)
	}
	d.Invariants().Violate("core.teardown.timer-leak")
	err := chk.Verify()
	if want := "driver: invariant core.teardown.timer-leak violated 1 time(s)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("checker after a leaked timer: %v, want an error naming %q", err, want)
	}
}
