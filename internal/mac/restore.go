package mac

import (
	"fmt"
	"sort"

	"spider/internal/dhcp"
	"spider/internal/metrics"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// APClientState is one association-table entry in a checkpoint. Frames
// ride as wire encodings (the codec covers every frame/body type the
// MAC parks).
type APClientState struct {
	Addr wifi.Addr
	apClientScalars
	Buffer  [][]byte
	Pending [][]byte
}

// APRespState is one delayed management response in flight.
type APRespState struct {
	Frame []byte
	Ev    sim.EventState
}

// APState is an AP's complete checkpointable state (its DHCP server
// rides along so composing layers handle one object per AP).
type APState struct {
	apScalars
	APStats
	Client []APClientState
	Resps  []APRespState
	Beacon sim.EventState

	DHCP       dhcp.ServerState
	Invariants []metrics.InvariantCount
}

// ExportState captures the AP for a checkpoint. Clients sort by MAC and
// in-flight responses by (at, seq), so the export is canonical.
func (ap *AP) ExportState() (APState, error) {
	dhcpd, err := ap.dhcpd.ExportState()
	if err != nil {
		return APState{}, err
	}
	resps, err := ap.responses.Capture()
	if err != nil {
		return APState{}, fmt.Errorf("mac: AP %s: %w", ap.Addr(), err)
	}
	st := APState{
		apScalars:  ap.sc,
		APStats:    ap.APStats,
		Beacon:     sim.CaptureEvent(ap.beaconEv),
		DHCP:       dhcpd,
		Invariants: ap.inv.ExportState(),
	}
	for addr, c := range ap.clients {
		st.Client = append(st.Client, APClientState{
			Addr: addr, apClientScalars: c.sc,
			Buffer: wifi.EncodeFrames(c.buffer), Pending: wifi.EncodeFrames(c.pending),
		})
	}
	sort.Slice(st.Client, func(i, j int) bool { return st.Client[i].Addr.Less(st.Client[j].Addr) })
	for _, r := range resps {
		st.Resps = append(st.Resps, APRespState{Frame: r.P.Encode(), Ev: r.Ev})
	}
	return st, nil
}

// RestoreState rewinds a freshly built AP to a checkpointed state:
// association table, PSM queues, DHCP server, and every in-flight
// response and beacon tick re-armed with recorded (at, seq) identities.
// Call after the owning kernel's BeginRestore. The radio's own state
// (channel, queue, in-flight frame) restores separately through the
// medium layer.
func (ap *AP) RestoreState(st APState) error {
	ap.sc, ap.APStats = st.apScalars, st.APStats
	if err := ap.dhcpd.RestoreState(st.DHCP); err != nil {
		return err
	}
	ap.inv.RestoreState(st.Invariants)

	ap.clients = make(map[wifi.Addr]*apClient, len(st.Client))
	for _, cs := range st.Client {
		buf, err := wifi.DecodeFrames(cs.Buffer)
		if err == nil {
			err = noBeacon(buf...)
		}
		if err != nil {
			return fmt.Errorf("mac: restoring PSM buffer: %w", err)
		}
		pend, err := wifi.DecodeFrames(cs.Pending)
		if err == nil {
			err = noBeacon(pend...)
		}
		if err != nil {
			return fmt.Errorf("mac: restoring pending frames: %w", err)
		}
		ap.clients[cs.Addr] = &apClient{sc: cs.apClientScalars, buffer: buf, pending: pend}
	}

	ap.responses.Drain(nil)
	for _, rs := range st.Resps {
		f, err := wifi.Decode(rs.Frame)
		if err == nil {
			err = noBeacon(f)
		}
		if err != nil {
			return fmt.Errorf("mac: restoring response: %w", err)
		}
		if err := ap.responses.Restore(rs.Ev, f, 0); err != nil {
			return fmt.Errorf("mac: restoring response: %w", err)
		}
	}

	ap.beaconEv.Cancel()
	ap.beaconEv = st.Beacon.Restore(ap.kernel(), ap, 0)
	return nil
}

// noBeacon refuses a restored frame an AP holds for sending that is a
// beacon. The beacon tick hands its beacon straight to the radio, so no
// response, PSM buffer or pending queue ever holds one, and a beacon
// that is not the AP's own cannot be mirrored across a shard boundary.
func noBeacon(fs ...*wifi.Frame) error {
	for _, f := range fs {
		if f.Type == wifi.TypeBeacon {
			return fmt.Errorf("holds %v", f)
		}
	}
	return nil
}

// JoinerState is a Joiner's complete checkpointable state. The target
// identity (BSSID/SSID) is restored by the owner via ResetTarget before
// RestoreState, matching how pooled joiners are re-pointed.
type JoinerState struct {
	joinerScalars
	Timer sim.EventState
}

// ExportState captures the joiner for a checkpoint.
func (j *Joiner) ExportState() JoinerState {
	return JoinerState{joinerScalars: j.sc, Timer: sim.CaptureEvent(j.timer)}
}

// RestoreState rewinds the joiner to a checkpointed state, re-arming
// its retransmission timer with the recorded identity.
func (j *Joiner) RestoreState(st JoinerState) {
	j.sc = st.joinerScalars
	j.cancelTimer()
	j.timer = st.Timer.Restore(j.kernel, j, 0)
}
