package expt

import (
	"time"

	"spider/internal/core"
	"spider/internal/dhcp"
	"spider/internal/mac"
	"spider/internal/scenario"
	"spider/internal/wifi"
)

// primarySchedule builds the Fig 5/6 style schedule: fraction f of
// period D on the primary channel, the remainder split evenly over the
// other orthogonal channels. f=1 yields a single-slice schedule.
func primarySchedule(primary int, f float64, D time.Duration) []core.ChannelSlice {
	if f >= 1 {
		return []core.ChannelSlice{{Channel: primary}}
	}
	others := make([]int, 0, 2)
	for _, ch := range wifi.OrthogonalChannels {
		if ch != primary {
			others = append(others, ch)
		}
	}
	rest := time.Duration(float64(D) * (1 - f) / float64(len(others)))
	out := []core.ChannelSlice{{Channel: primary, Dwell: time.Duration(float64(D) * f)}}
	for _, ch := range others {
		out = append(out, core.ChannelSlice{Channel: ch, Dwell: rest})
	}
	return out
}

// failureAwareCDF builds CDF points over successful event times with
// failures kept in the denominator: the curve saturates at the success
// fraction, exactly how Figs. 5, 6, 11 and 12 plot join delay.
func failureAwareCDF(successTimes []time.Duration, total int, xs []time.Duration) []Point {
	if total <= 0 {
		return nil
	}
	pts := make([]Point, 0, len(xs))
	for _, x := range xs {
		n := 0
		for _, t := range successTimes {
			if t <= x {
				n++
			}
		}
		pts = append(pts, Point{X: x.Seconds(), Y: float64(n) / float64(total)})
	}
	return pts
}

// secondsGrid returns xs at the given step up to max.
func secondsGrid(step, max time.Duration) []time.Duration {
	var out []time.Duration
	for x := step; x <= max; x += step {
		out = append(out, x)
	}
	return out
}

// channelOf maps BSSIDs to channels for a world.
func channelOf(w *scenario.World) map[wifi.Addr]int {
	out := make(map[wifi.Addr]int, len(w.APs))
	for _, ap := range w.APs {
		out[ap.AP.Addr()] = ap.AP.Channel()
	}
	return out
}

// assocOn returns the successful association delays toward APs on the
// given channel plus the total attempt count there.
func assocOn(c *scenario.Client, chans map[wifi.Addr]int, channel int) (succ []time.Duration, total int) {
	for _, e := range c.Assocs {
		if chans[e.BSSID] != channel {
			continue
		}
		total++
		if e.Res.Success {
			succ = append(succ, e.Res.Elapsed)
		}
	}
	return succ, total
}

// joinsAll returns all successful join (assoc+DHCP) delays and the total
// attempt count.
func joinsAll(c *scenario.Client) (succ []time.Duration, total int) {
	for _, e := range c.Joins {
		total++
		if e.Success {
			succ = append(succ, e.Elapsed)
		}
	}
	return succ, total
}

// joinCfg builds a driver config for join-measurement drives: multi-AP
// with the given timers, lease cache off so every join is a fresh
// handshake (the paper measures cold joins).
func joinCfg(schedule []core.ChannelSlice, link mac.JoinConfig, dhcpc dhcp.ClientConfig) core.Config {
	cfg := core.SpiderDefaults(core.MultiChannelMultiAP, schedule)
	if len(schedule) == 1 {
		cfg.Mode = core.SingleChannelMultiAP
	}
	cfg.Join = link
	cfg.DHCP = dhcpc
	cfg.UseLeaseCache = false
	return cfg
}
