package core

import (
	"time"

	"spider/internal/dhcp"
	"spider/internal/mac"
	"spider/internal/sim"
	"spider/internal/wifi"
)

// IfaceState is a virtual interface's lifecycle stage.
type IfaceState uint8

// Interface states.
const (
	IfaceJoining IfaceState = iota + 1 // link-layer auth+assoc in flight
	IfaceDHCP                          // lease acquisition in flight
	IfaceConnected
)

func (s IfaceState) String() string {
	switch s {
	case IfaceJoining:
		return "joining"
	case IfaceDHCP:
		return "dhcp"
	case IfaceConnected:
		return "connected"
	}
	return "idle"
}

// Iface is one virtual interface: the client-side state Spider keeps per
// AP it is joined (or joining) to. All interfaces share the one physical
// radio; frames flow only while the driver dwells on the AP's channel.
type Iface struct {
	d   *Driver
	rec *APRecord
	// The joiner and DHCP client live inside the interface, so one
	// allocation carries all three (see Driver.newIface). The interface
	// is their host: it routes their frames and outcomes to d.
	joiner mac.Joiner
	dhcpc  dhcp.Client

	sc ifaceScalars
	// renewEv is the T1 renewal timer; it fires through the interface
	// (Fire), which serves it across recycles with no closure.
	renewEv sim.Event
}

// ifaceScalars are an interface's plain evolving fields, checkpointed
// whole. The small fields share one word, which keeps the interface at
// 512 bytes (TestIfaceSize): every join attempt allocates one.
type ifaceScalars struct {
	State    IfaceState
	PSMOn    bool // we've told this AP we're in power-save
	Renewing bool // a T1 lease renewal (not a join) is in flight
	IP       dhcp.IP
	// JoinStart is when the attempt began (assoc+dhcp measured from here).
	JoinStart time.Duration
	LastHeard time.Duration
}

// Fire implements sim.Handler: the interface's one timer, the T1 lease
// renewal, fires through it.
func (ifc *Iface) Fire(uint8) { ifc.d.renew(ifc) }

// SendJoinFrame implements mac.JoinHost: the joiner's frames leave
// through the driver's transmit path on the AP's channel.
func (ifc *Iface) SendJoinFrame(f *wifi.Frame) { ifc.d.transmit(ifc.rec.Channel, f) }

// JoinResult implements mac.JoinHost.
func (ifc *Iface) JoinResult(res mac.AssocResult) { ifc.d.onAssocResult(ifc, res) }

// SendDHCP implements dhcp.ClientHost: the message leaves as a data
// frame toward the AP.
func (ifc *Iface) SendDHCP(m *dhcp.Message) { ifc.d.sendDHCP(ifc, m) }

// DHCPResult implements dhcp.ClientHost.
func (ifc *Iface) DHCPResult(res dhcp.Result) { ifc.d.onDHCPResult(ifc, res) }

// BSSID returns the AP this interface is bound to.
func (ifc *Iface) BSSID() wifi.Addr { return ifc.rec.BSSID }

// Channel returns the AP's channel.
func (ifc *Iface) Channel() int { return ifc.rec.Channel }

// State returns the lifecycle stage.
func (ifc *Iface) State() IfaceState { return ifc.sc.State }

// IP returns the leased address (zero until connected).
func (ifc *Iface) IP() dhcp.IP { return ifc.sc.IP }

// Connected reports whether the interface holds a lease.
func (ifc *Iface) Connected() bool { return ifc.sc.State == IfaceConnected }

// TimersPending reports whether any timer owned by this interface — the
// joiner's link timer, the DHCP client's retx/deadline timers, or the
// lease-renewal timer — is still armed. After teardown it must be
// false; a pending timer there is a leak that will fire into a dead
// interface.
func (ifc *Iface) TimersPending() bool {
	return ifc.joiner.TimerPending() || ifc.dhcpc.TimersPending() || ifc.renewEv.Pending()
}
