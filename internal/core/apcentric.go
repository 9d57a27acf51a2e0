package core

import (
	"spider/internal/sim"
	"spider/internal/wifi"
)

// startAPSlicer begins FatVAP-style per-AP time slicing when the config
// asks for it. Every pol.apSliceDwell the driver picks the next connected
// interface on the current channel as the "active" AP, wakes it (PSM
// off), and claims power-save at every other connected AP on the channel
// — serializing service across same-channel APs exactly the way Spider's
// channel-centric design avoids.
func (d *Driver) startAPSlicer() {
	d.apSliceEv = d.kernel.FireAfter(d.pol.apSliceDwell, d, timerAPSlice)
}

func (d *Driver) apSliceTick() {
	d.apSliceEv = sim.Event{}
	if d.stopped {
		return
	}
	d.apSliceRebalance()
	d.apSliceEv = d.kernel.FireAfter(d.pol.apSliceDwell, d, timerAPSlice)
}

// apSliceRebalance advances the slice rotation and reassigns PSM state.
// Besides the periodic tick, teardown calls it when a connected vAP
// dies so the dead AP's slice is redistributed immediately.
func (d *Driver) apSliceRebalance() {
	if d.sc.Switching {
		return
	}
	ch := d.radio.Channel()
	if ch == 0 {
		return
	}
	connected := d.connScratch[:0]
	for _, ifc := range d.liveIfaces() {
		if ifc.Channel() == ch && ifc.Connected() {
			connected = append(connected, ifc)
		}
	}
	d.connScratch = connected
	if len(connected) < 2 {
		// Nothing to serialize: make sure a lone AP is awake.
		if len(connected) == 1 && connected[0].sc.PSMOn {
			d.setPSM(connected[0], false)
		}
		return
	}
	d.sc.APSliceIdx = (d.sc.APSliceIdx + 1) % len(connected)
	for i, ifc := range connected {
		d.setPSM(ifc, i != d.sc.APSliceIdx)
	}
}

// setPSM announces the power-save state to one AP if it differs from
// what the AP already believes.
func (d *Driver) setPSM(ifc *Iface, on bool) {
	if ifc.sc.PSMOn == on {
		return
	}
	ifc.sc.PSMOn = on
	f := d.pool.Frame()
	f.Type = wifi.TypeNull
	f.SA, f.DA, f.BSSID = d.Addr(), ifc.BSSID(), ifc.BSSID()
	f.PowerMgmt = on
	f.Seq = d.nextSeq()
	d.radio.Send(f)
}
