package core

import (
	"sort"
	"time"

	"spider/internal/dhcp"
	"spider/internal/wifi"
)

// APRecord is what the driver knows about one discovered access point:
// discovery metadata from scanning plus the join history and cached lease
// that drive Spider's AP selection heuristic.
//
// Selecting the utility-maximizing AP set is NP-hard (the paper's
// appendix), so Spider "selects APs that have the best history of
// successful joins" — join time, not end-to-end bandwidth, is the
// critical factor at vehicular speeds.
type APRecord struct {
	BSSID    wifi.Addr
	SSID     string
	Channel  int
	LastSeen time.Duration

	Attempts  int
	Successes int
	TotalJoin time.Duration // summed over successful joins

	HoldUntil time.Duration // back-off after a failure

	// ConsecFails counts consecutive failed joins (reset on success);
	// the driver's retry budget and exponential backoff key off it.
	ConsecFails int
	// Quarantines counts budget exhaustions; each one doubles the next
	// blacklist duration (capped).
	Quarantines int
	// BlacklistUntil quarantines the AP entirely until the deadline; the
	// table lazily clears it (counting the eviction) once it passes.
	BlacklistUntil time.Duration

	LeaseIP     dhcp.IP
	LeaseExpiry time.Duration

	// Halo marks a record learned only through a neighboring shard's halo
	// (a mirrored beacon, or a cache handoff for an AP the new shard does
	// not own). The driver keeps the history — it warms the rejoin when
	// the AP is seen directly — but never selects a Halo record as a join
	// candidate: the AP's MAC and DHCP machinery live in another shard.
	Halo bool
}

// AvgJoin returns the mean successful join time, or 0 with no history.
func (r *APRecord) AvgJoin() time.Duration {
	if r.Successes == 0 {
		return 0
	}
	return r.TotalJoin / time.Duration(r.Successes)
}

// Score ranks the AP for selection: estimated join success rate divided
// by estimated join time, so APs that join quickly and reliably win.
// Unseen APs get an optimistic prior (explore) with a neutral 2 s join
// estimate.
func (r *APRecord) Score() float64 {
	// Laplace-smoothed success rate.
	rate := float64(r.Successes+1) / float64(r.Attempts+2)
	est := 2 * time.Second
	if r.Successes > 0 {
		est = r.AvgJoin()
	}
	return rate / est.Seconds()
}

// CachedLease returns the usable cached address, if any, at time now.
func (r *APRecord) CachedLease(now time.Duration) dhcp.IP {
	if r.LeaseIP != 0 && now < r.LeaseExpiry {
		return r.LeaseIP
	}
	return 0
}

// apTable is the driver's scan result store.
type apTable struct {
	byBSSID map[wifi.Addr]*APRecord
	// evictions counts blacklist expirations (lazily detected in
	// candidates); Driver.Stats surfaces it.
	evictions uint64
	// sorter holds the candidates scratch: the slice and ranking mode
	// live on the table so the periodic selection path allocates nothing
	// (sorting a pointer receiver boxes no value). Callers must not
	// retain the returned slice across calls. candArr is its first
	// backing: a channel rarely holds more candidates than the paper's
	// interface count, and more spill to the heap.
	sorter  apCandSorter
	candArr [paperInterfaces]*APRecord
}

// apCandSorter ranks candidate records best-first without the per-call
// closure sort.Slice would allocate.
type apCandSorter struct {
	recs       []*APRecord
	useHistory bool
}

func (s *apCandSorter) Len() int      { return len(s.recs) }
func (s *apCandSorter) Swap(i, j int) { s.recs[i], s.recs[j] = s.recs[j], s.recs[i] }
func (s *apCandSorter) Less(i, j int) bool {
	a, b := s.recs[i], s.recs[j]
	if s.useHistory {
		sa, sb := a.Score(), b.Score()
		if sa != sb {
			return sa > sb
		}
	} else if a.LastSeen != b.LastSeen {
		return a.LastSeen > b.LastSeen
	}
	// Deterministic tie-break.
	for i := range a.BSSID {
		if a.BSSID[i] != b.BSSID[i] {
			return a.BSSID[i] < b.BSSID[i]
		}
	}
	return false
}

func newAPTable() *apTable {
	t := &apTable{byBSSID: make(map[wifi.Addr]*APRecord)}
	t.sorter.recs = t.candArr[:0]
	return t
}

// observe records a beacon or probe response sighting. halo marks a
// sighting that arrived through a shard halo rather than this shard's
// own air; a direct sighting always clears the Halo mark (the AP is
// local after all), a halo sighting never sets it on a local record.
func (t *apTable) observe(bssid wifi.Addr, ssid string, channel int, now time.Duration, halo bool) *APRecord {
	r, ok := t.byBSSID[bssid]
	if !ok {
		r = &APRecord{BSSID: bssid, SSID: ssid, Channel: channel, Halo: halo}
		t.byBSSID[bssid] = r
	}
	r.SSID = ssid
	r.Channel = channel
	r.LastSeen = now
	if !halo {
		r.Halo = false
	}
	return r
}

// get returns the record for a BSSID, or nil.
func (t *apTable) get(bssid wifi.Addr) *APRecord { return t.byBSSID[bssid] }

// candidates returns records on the channel, recently seen, out of
// hold-down, ranked best-first. With history disabled, ranking is by
// recency alone (stock behaviour).
func (t *apTable) candidates(channel int, now, staleAfter time.Duration, useHistory bool) []*APRecord {
	out := t.sorter.recs[:0]
	for _, r := range t.byBSSID {
		if r.BlacklistUntil > 0 && now >= r.BlacklistUntil {
			// Quarantine served: the AP is eligible again.
			r.BlacklistUntil = 0
			t.evictions++
		}
		if r.Halo {
			continue
		}
		if r.Channel != channel {
			continue
		}
		if now-r.LastSeen > staleAfter {
			continue
		}
		if now < r.HoldUntil || now < r.BlacklistUntil {
			continue
		}
		out = append(out, r)
	}
	t.sorter.recs = out
	t.sorter.useHistory = useHistory
	// Map iteration above is order-randomized, but the sort's total
	// order (score/recency with a full BSSID tie-break) makes the result
	// independent of it.
	sort.Sort(&t.sorter)
	return t.sorter.recs
}

// all returns every record in BSSID order.
func (t *apTable) all() []*APRecord {
	out := make([]*APRecord, 0, len(t.byBSSID))
	for _, r := range t.byBSSID {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BSSID.Less(out[j].BSSID) })
	return out
}
