package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"spider/internal/dhcp"
	"spider/internal/mac"
	"spider/internal/metrics"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// IfaceSnapshot is one virtual interface in a driver checkpoint. The
// joiner and DHCP client ride along; the AP record is referenced by
// BSSID into the driver's exported scan table.
type IfaceSnapshot struct {
	BSSID     wifi.Addr
	State     uint8
	JoinStart time.Duration
	IP        dhcp.IP
	LastHeard time.Duration
	PSMOn     bool
	Renewing  bool
	RenewEv   sim.EventState
	Joiner    mac.JoinerState
	DHCP      dhcp.ClientState
}

// TxQueueState is one per-channel transmit queue in a driver
// checkpoint, frames as wire encodings.
type TxQueueState struct {
	Ch     int
	Frames [][]byte
}

// DriverState is a Spider driver's complete checkpointable state. The
// physical radio's state (channel, MAC queue, in-flight frame) restores
// separately through the medium layer; the driver carries only the
// identity of its own timers, including the in-flight channel-switch
// stages.
type DriverState struct {
	SchedIdx   int
	APSliceIdx int
	Switching  bool
	Dwelling   bool
	// Dormant marks a driver whose deferred admission (Config.StartAt)
	// has not fired yet; StartEv is its pending alarm. Version-1
	// checkpoints predate staggered admission: both fields decode to
	// their zero values there, which correctly restores an immediate
	// start (started, no alarm).
	Dormant    bool
	StartEv    sim.EventState
	Seq        uint16
	IdleUntil  time.Duration
	BGHome     int
	DwellStart time.Duration

	SwGen         uint64
	SwCh          int
	SwReset       time.Duration
	SwOutstanding int
	SwPolls       []wifi.Addr

	ScanEv     sim.EventState
	SliceEv    sim.EventState
	InactEv    sim.EventState
	BGScanEv   sim.EventState
	BGReturnEv sim.EventState
	APSliceEv  sim.EventState
	SwLingerEv sim.EventState
	SwRetuneEv sim.EventState

	Table     []APRecord // sorted by BSSID
	Evictions uint64
	Ifaces    []IfaceSnapshot // sorted by BSSID
	TxQ       []TxQueueState  // sorted by channel

	Stats         Stats
	AssocTimes    []time.Duration
	JoinTimes     []time.Duration
	SwitchLatency []time.Duration
	Invariants    []metrics.InvariantCount
}

// ExportState captures the driver for a checkpoint. Retired (Shutdown)
// drivers are never exported: Shutdown disarms every timer and orphans
// the radio queue, so a migrated-out driver's only surviving state is
// the physics the medium layer carries.
func (d *Driver) ExportState() DriverState {
	st := DriverState{
		SchedIdx: d.schedIdx, APSliceIdx: d.apSliceIdx,
		Switching: d.switching, Dwelling: d.dwelling,
		Seq: d.seq, IdleUntil: d.idleUntil, BGHome: d.bgHome,
		DwellStart: d.dwellStart,
		Dormant:    !d.started,
		StartEv:    sim.CaptureEvent(d.startEv),
		SwGen:      d.swGen, SwCh: d.swCh, SwReset: d.swReset,
		SwOutstanding: d.swOutstanding,

		ScanEv:     sim.CaptureEvent(d.scanEv),
		SliceEv:    sim.CaptureEvent(d.sliceEv),
		InactEv:    sim.CaptureEvent(d.inactEv),
		BGScanEv:   sim.CaptureEvent(d.bgScanEv),
		BGReturnEv: sim.CaptureEvent(d.bgReturnEv),
		APSliceEv:  sim.CaptureEvent(d.apSliceEv),
		SwLingerEv: sim.CaptureEvent(d.swLingerEv),
		SwRetuneEv: sim.CaptureEvent(d.swRetuneEv),

		Table:     d.ExportAPRecords(),
		Evictions: d.table.evictions,

		Stats:         d.stats,
		AssocTimes:    append([]time.Duration(nil), d.AssocTimes...),
		JoinTimes:     append([]time.Duration(nil), d.JoinTimes...),
		SwitchLatency: append([]time.Duration(nil), d.SwitchLatency...),
		Invariants:    d.inv.ExportState(),
	}
	// Only still-live poll entries matter: arrive() skips interfaces
	// that were torn down (or recycled) while the switch was in flight.
	for _, ifc := range d.swPolls {
		if d.ifaces[ifc.BSSID()] == ifc {
			st.SwPolls = append(st.SwPolls, ifc.BSSID())
		}
	}
	for _, ifc := range d.Interfaces() {
		st.Ifaces = append(st.Ifaces, IfaceSnapshot{
			BSSID: ifc.BSSID(), State: uint8(ifc.state),
			JoinStart: ifc.joinStart, IP: ifc.ip, LastHeard: ifc.lastHeard,
			PSMOn: ifc.psmOn, Renewing: ifc.renewing,
			RenewEv: sim.CaptureEvent(ifc.renewEv),
			Joiner:  ifc.joiner.ExportState(),
			DHCP:    ifc.dhcpc.ExportState(),
		})
	}
	// The queue is one slice across channels; the checkpoint keeps one
	// group per channel, ascending, each in queue order.
	for _, qf := range d.txq {
		i := sort.Search(len(st.TxQ), func(i int) bool { return st.TxQ[i].Ch >= qf.ch })
		if i == len(st.TxQ) || st.TxQ[i].Ch != qf.ch {
			st.TxQ = slices.Insert(st.TxQ, i, TxQueueState{Ch: qf.ch})
		}
		st.TxQ[i].Frames = append(st.TxQ[i].Frames, qf.f.Encode())
	}
	return st
}

// RestoreState rewinds a freshly built driver to a checkpointed state:
// scan table, virtual interfaces (with their joiner and DHCP machines),
// per-channel queues, switch machinery, and every timer re-armed with
// its recorded identity. Call after the owning kernel's BeginRestore;
// the radio's own state restores separately through the medium layer
// (TagPSM queue entries rebind via psmDoneFor).
func (d *Driver) RestoreState(st DriverState) error {
	d.schedIdx, d.apSliceIdx = st.SchedIdx, st.APSliceIdx
	d.switching, d.dwelling = st.Switching, st.Dwelling
	d.seq, d.idleUntil, d.bgHome = st.Seq, st.IdleUntil, st.BGHome
	d.dwellStart = st.DwellStart
	d.swGen, d.swCh, d.swReset = st.SwGen, st.SwCh, st.SwReset
	d.swOutstanding = st.SwOutstanding
	d.stats = st.Stats
	d.AssocTimes = append(d.AssocTimes[:0], st.AssocTimes...)
	d.JoinTimes = append(d.JoinTimes[:0], st.JoinTimes...)
	d.SwitchLatency = append(d.SwitchLatency[:0], st.SwitchLatency...)
	d.inv.RestoreState(st.Invariants)

	d.table.byBSSID = make(map[wifi.Addr]*APRecord, len(st.Table))
	for _, rec := range st.Table {
		r := rec
		d.table.byBSSID[r.BSSID] = &r
	}
	d.table.evictions = st.Evictions

	d.ifaces = make(map[wifi.Addr]*Iface, len(st.Ifaces))
	d.ifaceFree = d.ifaceFree[:0]
	for _, is := range st.Ifaces {
		rec := d.table.byBSSID[is.BSSID]
		if rec == nil {
			return fmt.Errorf("core: restored interface %s has no scan-table record", is.BSSID)
		}
		ifc := d.newIface(rec)
		ifc.state = IfaceState(is.State)
		ifc.joinStart, ifc.ip, ifc.lastHeard = is.JoinStart, is.IP, is.LastHeard
		ifc.psmOn, ifc.renewing = is.PSMOn, is.Renewing
		ifc.joiner.RestoreState(is.Joiner)
		ifc.dhcpc.RestoreState(is.DHCP)
		ifc.renewEv = is.RenewEv.Restore(d.kernel, d.ensureRenewFn(ifc))
		d.ifaces[is.BSSID] = ifc
	}

	d.swPolls = d.swPolls[:0]
	for _, b := range st.SwPolls {
		ifc := d.ifaces[b]
		if ifc == nil {
			return fmt.Errorf("core: restored switch poll for unknown interface %s", b)
		}
		d.swPolls = append(d.swPolls, ifc)
	}

	d.txq = d.txq[:0]
	for _, qs := range st.TxQ {
		for _, b := range qs.Frames {
			f, err := wifi.Decode(b)
			if err != nil {
				return fmt.Errorf("core: restoring queued frame on ch %d: %w", qs.Ch, err)
			}
			d.txq = append(d.txq, queuedFrame{f: f, ch: qs.Ch})
		}
	}

	d.started = !st.Dormant
	d.startEv = st.StartEv.Restore(d.kernel, d.startFn)
	d.scanEv = st.ScanEv.Restore(d.kernel, d.scanTickFn)
	d.sliceEv = st.SliceEv.Restore(d.kernel, d.nextSliceFn)
	d.inactEv = st.InactEv.Restore(d.kernel, d.inactivityFn)
	d.bgScanEv = st.BGScanEv.Restore(d.kernel, d.bgScanFn)
	d.bgReturnEv = st.BGReturnEv.Restore(d.kernel, d.bgReturnFn)
	if st.APSliceEv.Pending {
		if d.apSliceFn == nil {
			d.apSliceFn = d.apSliceTick
		}
		d.apSliceEv = st.APSliceEv.Restore(d.kernel, d.apSliceFn)
	}
	d.swLingerEv = st.SwLingerEv.Restore(d.kernel, d.lingerFn)
	if st.SwRetuneEv.Pending {
		d.swRetuneEv = d.radio.RestoreRetune(d.swCh, st.SwRetuneEv.At, st.SwRetuneEv.Seq, d.arriveFn)
	}
	return nil
}

// PSMDone exposes psmDoneFor for checkpoint restore: the medium layer
// rebinds restored TagPSM queue entries through it.
func (d *Driver) PSMDone(gen uint64) func(bool) { return d.psmDoneFor(gen) }
