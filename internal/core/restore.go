package core

import (
	"fmt"
	"slices"
	"sort"

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
	BSSID wifi.Addr
	ifaceScalars
	RenewEv sim.EventState
	Joiner  mac.JoinerState
	DHCP    dhcp.ClientState
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
	driverScalars
	SwPolls []wifi.Addr

	StartEv    sim.EventState
	ScanEv     sim.EventState
	SliceEv    sim.EventState
	InactEv    sim.EventState
	BGScanEv   sim.EventState
	BGReturnEv sim.EventState
	APSliceEv  sim.EventState
	SwLingerEv sim.EventState
	SwRetuneEv sim.EventState

	Table      []APRecord // sorted by BSSID
	Evictions  uint64
	Ifaces     []IfaceSnapshot // sorted by BSSID
	TxQ        []TxQueueState  // sorted by channel
	Invariants []metrics.InvariantCount
}

// ExportState captures the driver for a checkpoint. Retired (Shutdown)
// drivers are never exported: Shutdown disarms every timer and orphans
// the radio queue, so a migrated-out driver's only surviving state is
// the physics the medium layer carries.
func (d *Driver) ExportState() DriverState {
	st := DriverState{
		driverScalars: d.sc,

		StartEv:    sim.CaptureEvent(d.startEv),
		ScanEv:     sim.CaptureEvent(d.scanEv),
		SliceEv:    sim.CaptureEvent(d.sliceEv),
		InactEv:    sim.CaptureEvent(d.inactEv),
		BGScanEv:   sim.CaptureEvent(d.bgScanEv),
		BGReturnEv: sim.CaptureEvent(d.bgReturnEv),
		APSliceEv:  sim.CaptureEvent(d.apSliceEv),
		SwLingerEv: sim.CaptureEvent(d.swLingerEv),
		SwRetuneEv: sim.CaptureEvent(d.swRetuneEv),

		Table:      d.ExportAPRecords(),
		Evictions:  d.table.evictions,
		Invariants: d.inv.ExportState(),
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
			BSSID: ifc.BSSID(), ifaceScalars: ifc.sc,
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
// the radio's own state restores separately through the medium layer.
func (d *Driver) RestoreState(st DriverState) error {
	if st.SchedIdx < 0 || st.SchedIdx >= max(len(d.cfg.Schedule), 1) || st.APSliceIdx < 0 {
		return fmt.Errorf("core: restored schedule index %d or AP slice %d out of range", st.SchedIdx, st.APSliceIdx)
	}
	if !wifi.Tunable(st.SwCh) || !wifi.Tunable(st.BGHome) {
		return fmt.Errorf("core: restored switch target %d or background home %d is no channel", st.SwCh, st.BGHome)
	}
	d.sc = st.driverScalars
	d.inv.RestoreState(st.Invariants)

	d.table.byBSSID = make(map[wifi.Addr]*APRecord, len(st.Table))
	for _, rec := range st.Table {
		if !wifi.ValidChannel(rec.Channel) || rec.BSSID == (wifi.Addr{}) {
			return fmt.Errorf("core: restored scan-table record %s on channel %d", rec.BSSID, rec.Channel)
		}
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
		ifc.sc = is.ifaceScalars
		ifc.joiner.RestoreState(is.Joiner)
		ifc.dhcpc.RestoreState(is.DHCP)
		ifc.renewEv = is.RenewEv.Restore(d.kernel, ifc, 0)
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
		fs, err := wifi.DecodeFrames(qs.Frames)
		if err != nil {
			return fmt.Errorf("core: restoring queue on ch %d: %w", qs.Ch, err)
		}
		for _, f := range fs {
			d.txq = append(d.txq, queuedFrame{f: f, ch: qs.Ch})
		}
	}

	d.startEv = st.StartEv.Restore(d.kernel, d, timerStart)
	d.scanEv = st.ScanEv.Restore(d.kernel, d, timerScan)
	d.sliceEv = st.SliceEv.Restore(d.kernel, d, timerSlice)
	d.inactEv = st.InactEv.Restore(d.kernel, d, timerInactivity)
	d.bgScanEv = st.BGScanEv.Restore(d.kernel, d, timerBGScan)
	d.bgReturnEv = st.BGReturnEv.Restore(d.kernel, d, timerBGReturn)
	d.apSliceEv = st.APSliceEv.Restore(d.kernel, d, timerAPSlice)
	d.swLingerEv = st.SwLingerEv.Restore(d.kernel, d, timerLinger)
	var err error
	d.swRetuneEv, err = d.radio.RestoreRetune(d.sc.SwCh, st.SwRetuneEv, d, timerArrive)
	return err
}
