package shard

import (
	"fmt"
	"time"

	"spider/internal/fault"
	"spider/internal/geo"
	"spider/internal/obs"
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
// next — derived on export, regrouped by source on restore.
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
// point where a consistent cut exists: every captured beacon is sealed
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

// ExportState captures the city at the current barrier.
func (c *City) ExportState() (CityState, error) {
	st := CityState{
		Now:          c.now,
		Migrations:   c.Migrations,
		MigLog:       append([]MigRecord(nil), c.migLog...),
		ResidentTile: append([]int32(nil), c.residentTile...),
	}
	for i, t := range c.Tiles {
		k := t.World.Kernel
		if k.Now() != c.now {
			return CityState{}, fmt.Errorf("shard: tile %d at %v, barrier at %v", i, k.Now(), c.now)
		}
		if len(t.halo[t.cur]) != 0 {
			return CityState{}, fmt.Errorf("shard: tile %d has unflipped halo records", i)
		}
		ts := TileState{NextSeq: k.NextSeq(), Fired: k.Fired(), RNGs: k.ExportRNGs()}
		ws, err := t.World.ExportState()
		if err != nil {
			return CityState{}, fmt.Errorf("shard: tile %d: %w", i, err)
		}
		ts.World = ws
		c.inbound(t, func(r *haloRec) {
			ts.Inbox = append(ts.Inbox, HaloFrameState{
				Dst: i, Frame: r.frame.Encode(), Ch: r.ch, Pos: r.pos,
			})
		})
		if len(c.Injectors) > 0 {
			is, err := c.Injectors[i].ExportState()
			if err != nil {
				return CityState{}, fmt.Errorf("shard: tile %d: %w", i, err)
			}
			ts.Injector = &is
		}
		if c.obs != nil {
			ts.Obs = &ObsState{
				Handles: c.obs[i].Reg.ExportHandles(),
				Tracer:  c.obs[i].Tracer.ExportState(),
			}
		}
		st.Tiles = append(st.Tiles, ts)
	}
	return st, nil
}

// RestoreState rewinds a freshly built city to a checkpointed barrier.
// The city must have been built from the same spec, with EnableObs and
// ApplyChaos applied (or not) exactly as in the checkpointed run —
// presence mismatches are errors, not silent drift.
//
// Order matters:
//  1. Replay the migration log, reproducing each medium's radio
//     registration sequence. The replay schedules events and churns
//     component state, all of which the next step discards.
//  2. Per tile: BeginRestore (drops every pending event, sets the
//     clock), then world → injector → obs state, whose restores re-arm
//     events with their recorded identities.
//  3. Per tile, last: RestoreRNGs — cancelling every construction- and
//     replay-time draw by rewinding each stream in place.
//
// Inbox frames are regrouped into their source tile's read-side halo
// buffer, one single-bit record per entry. The source is the tile
// owning the frame's position: only APs beacon, and APs are static
// inside their tile. A frame whose source is not a neighbour of its
// inbox's tile is an error.
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

	for i, ts := range st.Tiles {
		t := c.Tiles[i]
		k := t.World.Kernel
		k.BeginRestore(st.Now, ts.NextSeq, ts.Fired)
		if err := t.World.RestoreState(ts.World); err != nil {
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
			if err := c.restoreMirror(i, hs); err != nil {
				return fmt.Errorf("shard: tile %d inbox frame %d: %w", i, n, err)
			}
		}
		if err := k.RestoreErr(); err != nil {
			return fmt.Errorf("shard: tile %d: %w", i, err)
		}
		k.RestoreRNGs(ts.RNGs)
	}
	for _, t := range c.Tiles {
		sealHalo(t.halo[t.cur^1])
	}
	c.now = st.Now
	return nil
}

// restoreMirror files one inbox frame of tile dst as a record in its
// source tile's read-side halo buffer, carrying dst's bit only.
func (c *City) restoreMirror(dst int, hs HaloFrameState) error {
	if hs.Dst != dst {
		return fmt.Errorf("addressed to tile %d", hs.Dst)
	}
	if !wifi.ValidChannel(hs.Ch) {
		return fmt.Errorf("on invalid channel %d", hs.Ch)
	}
	src := c.Tiles[c.Layout.TileOf(hs.Pos)]
	slot := src.slotOf(dst)
	if slot < 0 {
		return fmt.Errorf("source tile %d at %v is not a neighbour", src.Index, hs.Pos)
	}
	f, err := wifi.Decode(hs.Frame)
	if err != nil {
		return err
	}
	body, ok := f.Body.(*wifi.BeaconBody)
	if f.Type != wifi.TypeBeacon || !f.DA.IsBroadcast() || !ok {
		return fmt.Errorf("not a broadcast beacon")
	}
	buf := &src.halo[src.cur^1]
	*buf = append(*buf, haloRec{frame: *f, body: *body, ch: hs.Ch, pos: hs.Pos, mask: 1 << slot})
	return nil
}
