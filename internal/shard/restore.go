package shard

import (
	"fmt"
	"time"

	"spider/internal/fault"
	"spider/internal/geo"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// HaloFrameState is one mirror frame awaiting injection into tile Dst,
// as wire bytes. The Halo flag is implicit — the wire format drops it,
// and every inbox frame at a barrier is a halo mirror by construction.
//
// The city holds no inboxes: each captured beacon is one record in its
// source tile's halo buffer, read in place by every neighbour it
// reaches. A tile's Inbox is the view of those records it would inject
// next — rebuilt into frames on export, mapped back to records and
// regrouped by source on restore. A record names its AP and sequence
// number only, so restore refuses a frame that is not exactly its AP's
// beacon on its AP's channel at its AP's position.
type HaloFrameState struct {
	Dst   int
	Frame []byte
	Ch    int
	Pos   geo.Point
}

// ObsState is one tile's observation bundle: typed metric handles plus
// the trace ring.
type ObsState struct {
	Handles []obs.HandleState
	Tracer  obs.TracerState
}

// TileState is one tile's complete checkpointable state: its kernel
// position, every RNG stream position, the world, the chaos injector
// (when armed), the observation bundle (when enabled), and the halo
// frames awaiting injection at its next epoch.
type TileState struct {
	NextSeq uint64
	Fired   uint64
	RNGs    []sim.RNGPos
	World   scenario.WorldState

	Injector *fault.InjectorState
	Obs      *ObsState
	Inbox    []HaloFrameState
}

// CityState is a city's complete state at a shard barrier — the only
// point where a consistent cut exists: every captured beacon is held
// in its tile's read-side halo buffer, every tile sits at the same
// virtual time, and every pending event is strictly in the future.
type CityState struct {
	Now        time.Duration
	Migrations uint64

	// MigLog is the full migration history. Restore replays it call by
	// call so each medium's radio registration order matches the
	// original run's — the one property a fresh build cannot reproduce.
	MigLog []MigRecord

	// ResidentTile is the post-replay residency, kept as a cross-check
	// that the replay reconverged.
	ResidentTile []int32

	Tiles []TileState
}

// ExportState captures the city at the current barrier. Tiles export
// on the worker pool: a tile's task reads only its own tile and its
// neighbours' read-side halo records, and writes only its own
// slot of st.Tiles and its own scratch frame.
func (c *City) ExportState() (CityState, error) {
	st := CityState{
		Now:          c.now,
		Migrations:   c.Migrations,
		MigLog:       append([]MigRecord(nil), c.migLog...),
		ResidentTile: append([]int32(nil), c.residentTile...),
		Tiles:        make([]TileState, len(c.Tiles)),
	}
	if err := c.forTiles(func(i int) error {
		t := c.Tiles[i]
		k := t.World.Kernel
		if k.Now() != c.now {
			return fmt.Errorf("shard: tile %d at %v, barrier at %v", i, k.Now(), c.now)
		}
		if len(t.halo[t.cur]) != 0 {
			return fmt.Errorf("shard: tile %d has unflipped halo records", i)
		}
		ts := TileState{NextSeq: k.NextSeq(), Fired: k.Fired(), RNGs: k.ExportRNGs()}
		ws, err := t.World.ExportState()
		if err != nil {
			return fmt.Errorf("shard: tile %d: %w", i, err)
		}
		ts.World = ws
		c.inbound(t, func(r *haloRec) {
			tp := &c.beacons[r.ap]
			ts.Inbox = append(ts.Inbox, HaloFrameState{
				Dst: i, Frame: t.beacon(tp, r.seq).Encode(), Ch: int(tp.adv.Channel), Pos: tp.pos,
			})
		})
		if len(c.Injectors) > 0 {
			is, err := c.Injectors[i].ExportState()
			if err != nil {
				return fmt.Errorf("shard: tile %d: %w", i, err)
			}
			ts.Injector = &is
		}
		if c.obs != nil {
			ts.Obs = &ObsState{
				Handles: c.obs[i].Reg.ExportHandles(),
				Tracer:  c.obs[i].Tracer.ExportState(),
			}
		}
		st.Tiles[i] = ts
		return nil
	}); err != nil {
		return CityState{}, err
	}
	return st, nil
}

// RestoreState rewinds a freshly built city to a checkpointed barrier.
// The city must have been built from the same spec, with EnableObs and
// ApplyChaos applied (or not) exactly as in the checkpointed run —
// presence mismatches are errors, not silent drift.
//
// Order matters:
//  1. Replay the migration log, serially, reproducing each medium's
//     radio registration sequence. The replay schedules events and
//     churns component state, all of which the next phase discards.
//  2. Per tile, on the worker pool: BeginRestore (drops every pending
//     event, sets the clock), then world state, whose radios are checked
//     to send no beacon but their APs' own (checkBeacons), → injector →
//     obs state, whose restores re-arm events with their recorded
//     identities, then the inbox frames are decoded and checked, and
//     last RestoreRNGs —
//     cancelling every construction- and replay-time draw by rewinding
//     each stream in place. A task touches only its own tile.
//  3. Serially, in (tile, frame) order: each inbox frame's record is
//     filed in its source tile's read-side halo buffer, one single-bit
//     record per entry. It is the only write across tiles, and its
//     order is the order a serial restore would file them in.
//
// The source of an inbox frame is the tile owning its AP: only APs
// beacon, and APs are static inside their tile. A frame that is not its
// AP's beacon, or whose source is not a neighbour of its inbox's tile,
// is an error. When several tiles fail, the lowest-indexed one's first
// error is returned.
func (c *City) RestoreState(st CityState) error {
	if c.now != 0 || c.Migrations != 0 || len(c.migLog) != 0 {
		return fmt.Errorf("shard: RestoreState needs a freshly built city")
	}
	if len(st.Tiles) != len(c.Tiles) {
		return fmt.Errorf("shard: %d tiles in state, %d built", len(st.Tiles), len(c.Tiles))
	}
	if len(st.ResidentTile) != len(c.residentTile) {
		return fmt.Errorf("shard: %d clients in state, %d built", len(st.ResidentTile), len(c.residentTile))
	}

	for n, m := range st.MigLog {
		if m.Client < 0 || int(m.Client) >= len(c.clients) ||
			m.From < 0 || int(m.From) >= len(c.Tiles) ||
			m.To < 0 || int(m.To) >= len(c.Tiles) || m.From == m.To {
			return fmt.Errorf("shard: migration log entry %d is out of range", n)
		}
		if c.residentTile[m.Client] != m.From {
			return fmt.Errorf("shard: migration log entry %d moves client %d from tile %d, resident in %d",
				n, m.Client, m.From, c.residentTile[m.Client])
		}
		recs := c.Tiles[m.From].World.RemoveClient(c.clients[m.Client])
		c.Tiles[m.To].World.AdoptClient(c.clients[m.Client], c.clientCfg(int(m.Client)), c.mobs[m.Client], recs)
		c.residentTile[m.Client] = m.To
	}
	for i := range c.residentTile {
		if c.residentTile[i] != st.ResidentTile[i] {
			return fmt.Errorf("shard: client %d resident in tile %d after replay, checkpoint says %d",
				i, c.residentTile[i], st.ResidentTile[i])
		}
	}
	c.migLog = append(c.migLog, st.MigLog...)
	c.Migrations = st.Migrations

	mirrors := make([][]mirror, len(c.Tiles))
	if err := c.forTiles(func(i int) error {
		ts := &st.Tiles[i]
		t := c.Tiles[i]
		k := t.World.Kernel
		k.BeginRestore(st.Now, ts.NextSeq, ts.Fired)
		if err := t.World.RestoreState(ts.World); err != nil {
			return fmt.Errorf("shard: tile %d: %w", i, err)
		}
		if err := c.checkBeacons(t, ts.World.Medium); err != nil {
			return fmt.Errorf("shard: tile %d: %w", i, err)
		}
		switch {
		case ts.Injector != nil && i < len(c.Injectors):
			if err := c.Injectors[i].RestoreState(*ts.Injector); err != nil {
				return fmt.Errorf("shard: tile %d: %w", i, err)
			}
		case ts.Injector != nil:
			return fmt.Errorf("shard: tile %d has chaos state but no injector; call ApplyChaos before RestoreState", i)
		case len(c.Injectors) > 0:
			return fmt.Errorf("shard: tile %d has an injector but the checkpoint carries no chaos state", i)
		}
		switch {
		case ts.Obs != nil && c.obs != nil:
			if err := c.obs[i].Reg.RestoreHandles(ts.Obs.Handles); err != nil {
				return fmt.Errorf("shard: tile %d: %w", i, err)
			}
			if err := c.obs[i].Tracer.RestoreState(ts.Obs.Tracer); err != nil {
				return fmt.Errorf("shard: tile %d: %w", i, err)
			}
		case ts.Obs != nil:
			return fmt.Errorf("shard: tile %d has obs state but obs are not enabled; call EnableObs before RestoreState", i)
		case c.obs != nil:
			return fmt.Errorf("shard: tile %d has obs enabled but the checkpoint carries no obs state", i)
		}
		for n, hs := range ts.Inbox {
			m, err := c.decodeMirror(i, hs)
			if err != nil {
				return fmt.Errorf("shard: tile %d inbox frame %d: %w", i, n, err)
			}
			mirrors[i] = append(mirrors[i], m)
		}
		if err := k.RestoreErr(); err != nil {
			return fmt.Errorf("shard: tile %d: %w", i, err)
		}
		k.RestoreRNGs(ts.RNGs)
		return nil
	}); err != nil {
		return err
	}
	for _, ms := range mirrors {
		for _, m := range ms {
			buf := &m.src.halo[m.src.cur^1]
			*buf = append(*buf, m.rec)
		}
	}
	c.now = st.Now
	return nil
}

// mirror is one inbox frame mapped back to its record, bound for its
// source tile's read-side halo buffer.
type mirror struct {
	src *Tile
	rec haloRec
}

// decodeMirror maps one inbox frame of tile dst back to the record its
// source tile will hold, carrying dst's bit only. The frame must be
// exactly the beacon its AP sent with its sequence number, on the
// AP's channel at the AP's position. It reads the beacon templates, the
// layout and the source's neighbour list, never a halo buffer, and
// writes only dst's scratch.
func (c *City) decodeMirror(dst int, hs HaloFrameState) (mirror, error) {
	if hs.Dst != dst {
		return mirror{}, fmt.Errorf("addressed to tile %d", hs.Dst)
	}
	if !wifi.ValidChannel(hs.Ch) {
		return mirror{}, fmt.Errorf("on invalid channel %d", hs.Ch)
	}
	f, err := wifi.Decode(hs.Frame)
	if err != nil {
		return mirror{}, err
	}
	ap, ok := c.beaconSource(f.SA)
	if !ok {
		return mirror{}, fmt.Errorf("from %v, which is no planned AP", f.SA)
	}
	tp := &c.beacons[ap]
	if hs.Ch != int(tp.adv.Channel) || hs.Pos != tp.pos {
		return mirror{}, fmt.Errorf("on channel %d at %v, but AP %v is on channel %d at %v",
			hs.Ch, hs.Pos, f.SA, tp.adv.Channel, tp.pos)
	}
	if !sameBeacon(f, c.Tiles[dst].beacon(tp, f.Seq)) {
		return mirror{}, fmt.Errorf("%v is not AP %v's beacon", f, f.SA)
	}
	src := c.Tiles[c.Layout.TileOf(tp.pos)]
	slot := src.slotOf(dst)
	if slot < 0 {
		return mirror{}, fmt.Errorf("source tile %d at %v is not a neighbour", src.Index, hs.Pos)
	}
	return mirror{src: src, rec: haloRec{ap: int32(ap), seq: f.Seq, mask: 1 << slot}}, nil
}

// checkBeacons refuses a restored tile whose radios would put on the air
// a broadcast beacon that captureHalo cannot file as its AP's: a planned
// AP's radio tuned to a channel other than its own (a crashed AP's radio
// sits on 0), or a queued or in-flight broadcast beacon that is not its
// radio's AP's beacon on that AP's channel. Only an AP's beacon tick
// sends beacons, always on the AP's channel, and a broadcast is never
// retransmitted, so no run leaves any other. Like decodeMirror, it
// writes only t's scratch.
func (c *City) checkBeacons(t *Tile, ms radio.MediumState) error {
	for _, rs := range ms.Radios {
		var tp *beaconTemplate
		if ap, ok := c.beaconSource(rs.Addr); ok {
			tp = &c.beacons[ap]
		}
		if tp != nil && rs.Channel != 0 && rs.Channel != int(tp.adv.Channel) {
			return fmt.Errorf("AP %v's radio on channel %d, configured for %d", rs.Addr, rs.Channel, tp.adv.Channel)
		}
		for n, js := range rs.Queue {
			f, err := wifi.Decode(js.Frame)
			if err != nil {
				return fmt.Errorf("radio %v queued frame %d: %w", rs.Addr, n, err)
			}
			if f.Type != wifi.TypeBeacon || !f.DA.IsBroadcast() {
				continue
			}
			ch := js.Ch
			if n == 0 && rs.TxBusy {
				ch = rs.TxCh
			}
			if tp == nil || f.SA != rs.Addr || js.Attempt != 0 || ch != int(tp.adv.Channel) ||
				!sameBeacon(f, t.beacon(tp, f.Seq)) {
				return fmt.Errorf("radio %v queued frame %d, %v on channel %d at attempt %d, is not its AP's beacon",
					rs.Addr, n, f, ch, js.Attempt)
			}
		}
	}
	return nil
}
