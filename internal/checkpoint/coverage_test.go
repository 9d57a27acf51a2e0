package checkpoint

import (
	"reflect"
	"slices"
	"testing"

	"spider/internal/backhaul"
	"spider/internal/core"
	"spider/internal/dhcp"
	"spider/internal/fault"
	"spider/internal/mac"
	"spider/internal/metrics"
	"spider/internal/obs"
	"spider/internal/radio"
	"spider/internal/scenario"
	"spider/internal/tcpsim"
)

// checkpointed is one component type and where each of its fields goes
// in a checkpoint.
type checkpointed struct {
	comp, state reflect.Type
	// units are fields whose whole value the state type holds, as a
	// field of the same type (embedded, for the scalars structs).
	units []string
	// translated are fields ExportState and RestoreState carry by hand:
	// timers, pointers named by address, pooled objects, wire frames.
	translated []string
	// derived are fields the rebuild recreates or that are never
	// checkpointed: wiring, configuration, caches, scratch, callbacks.
	derived []string
}

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// checkpointedTypes lists every component a checkpoint carries. Radio
// has no unit: its layout is pinned (TestRadioWalkFieldsShareALine),
// so its scalars are copied one by one.
var checkpointedTypes = []checkpointed{
	{
		comp: typeOf[core.Driver](), state: typeOf[core.DriverState](),
		units: []string{"sc"},
		translated: []string{"table", "ifaces", "txq", "swPolls", "inv",
			"scanEv", "sliceEv", "inactEv", "bgScanEv", "bgReturnEv", "apSliceEv", "startEv",
			"swLingerEv", "swRetuneEv"},
		derived: []string{"kernel", "cfg", "pol", "radio", "host", "pool", "backoffRNG",
			"tr", "hAssoc", "hJoin", "hSwitch",
			"ifScratch", "connScratch", "ifaceFree", "ifArr", "pollArr", "dhcpMsg",
			"stopped"}, // retired drivers are never exported
	},
	{
		comp: typeOf[core.Iface](), state: typeOf[core.IfaceSnapshot](),
		units:      []string{"sc"},
		translated: []string{"rec", "joiner", "dhcpc", "renewEv"},
		derived:    []string{"d"},
	},
	{
		comp: typeOf[mac.AP](), state: typeOf[mac.APState](),
		units:      []string{"sc", "APStats"},
		translated: []string{"dhcpd", "beaconEv", "responses", "clients", "inv"},
		derived:    []string{"cfg", "radio", "pool", "uplink", "dhcpMsg"},
	},
	{
		comp:       fieldType(typeOf[mac.AP](), "clients").Elem().Elem(), // *apClient
		state:      typeOf[mac.APClientState](),
		units:      []string{"sc"},
		translated: []string{"buffer", "pending"},
	},
	{
		comp: typeOf[mac.Joiner](), state: typeOf[mac.JoinerState](),
		units:      []string{"sc"},
		translated: []string{"timer"},
		derived: []string{"kernel", "cfg", "self", "bssid", "ssid", "host", "pool", "rng",
			"inv", "tr"},
	},
	{
		comp: typeOf[dhcp.Server](), state: typeOf[dhcp.ServerState](),
		units:      []string{"sc", "ServerStats"},
		translated: []string{"bindings", "replies"},
		derived: []string{"kernel", "cfg", "rng", "send", "inv",
			"chaos", "chaosRNG", "onFault"}, // the injector re-applies chaos
	},
	{
		comp: typeOf[dhcp.Client](), state: typeOf[dhcp.ClientState](),
		units:      []string{"sc"},
		translated: []string{"retxTimer", "deadline"},
		derived:    []string{"kernel", "cfg", "mac", "host", "rng", "msg", "inv", "tr"},
	},
	{
		comp: typeOf[tcpsim.Sender](), state: typeOf[tcpsim.SenderState](),
		units:      []string{"sc"},
		translated: []string{"inflight", "rtoTimer"},
		derived:    []string{"kernel", "flowID", "transmit", "onDone", "segs"},
	},
	{
		comp: typeOf[tcpsim.Receiver](), state: typeOf[tcpsim.ReceiverState](),
		units:      []string{"sc"},
		translated: []string{"ooo"},
		derived:    []string{"flowID", "ack"},
	},
	{
		comp: typeOf[obs.Tracer](), state: typeOf[obs.TracerState](),
		units:      []string{"sc"},
		translated: []string{"ring"},
		derived:    []string{"mu", "now", "filter"},
	},
	{
		comp: typeOf[metrics.Recorder](), state: typeOf[metrics.RecorderState](),
		units:      []string{"sc"},
		translated: []string{"bins"},
		derived:    []string{"bin"},
	},
	{
		comp: typeOf[fault.Injector](), state: typeOf[fault.InjectorState](),
		units:      []string{"sc"},
		translated: []string{"streams", "episodes", "classes", "outstanding"},
		derived: []string{"kernel", "cfg", "seed", "aps", "links", "medium", "driver",
			"apStream", "linkStream", "resetRNG", "tr",
			"timelineUsed"}, // a scripted timeline refuses to export
	},
	{
		comp: typeOf[scenario.Client](), state: typeOf[scenario.ClientState](),
		units:      []string{"sc"},
		translated: []string{"addr", "Driver", "Rec", "conns", "Joins", "Assocs", "segs"},
		derived: []string{"World", "workload", "dlSeg", "injector",
			"webActive", "webPage", "Web"}, // a web workload refuses to export
	},
	{
		comp: typeOf[backhaul.Link](), state: typeOf[backhaul.State](),
		units:   []string{"st"},
		derived: []string{"kernel", "cfg"},
	},
	{
		comp: typeOf[radio.Medium](), state: typeOf[radio.MediumState](),
		units:      []string{"stats"},
		translated: []string{"radios", "burst", "active"},
		derived: []string{"kernel", "cfg", "rng", "idx", "byAddr", "reregistered", "promiscuous",
			"dlScratch", "tap", "txObs", "pool"},
	},
	{
		comp: typeOf[radio.Radio](), state: typeOf[radio.RadioState](),
		translated: []string{"addr", "channel", "promiscuous", "suspendedTo", "busyUntil", "air",
			"txQueue", "txBusy", "txCh", "txDur", "txDoneEv",
			"retuneCh"}, // the driver re-arms a retune through RestoreRetune
		derived: []string{"m", "mob", "rx", "regIdx", "static", "maxSpeed",
			"posVal", "posAt", "posValid", "posFixed", "inMCells", "binCell",
			"qbValid", "qbPos", "qbLo", "qbHi",
			"retuneDone", "retuneKind", "txHead", "txF"},
	},
}

func fieldType(t reflect.Type, name string) reflect.Type {
	f, _ := t.FieldByName(name)
	return f.Type
}

// TestCheckpointCoverage: every field of every checkpointed component
// is in its checkpoint's whole-stored unit, on its short list of
// fields translated by hand, or on its list of derived and ephemeral
// fields. A field added to a component and listed nowhere fails here,
// so a checkpoint cannot silently leave state behind. Each unit's
// fields must all be exported, so the JSON codec stores every one.
func TestCheckpointCoverage(t *testing.T) {
	for _, c := range checkpointedTypes {
		seen := map[string]int{}
		for _, name := range slices.Concat(c.units, c.translated, c.derived) {
			seen[name]++
			if _, ok := c.comp.FieldByName(name); !ok {
				t.Errorf("%v: listed field %s does not exist", c.comp, name)
			}
		}
		for i := 0; i < c.comp.NumField(); i++ {
			f := c.comp.Field(i)
			switch seen[f.Name] {
			case 0:
				t.Errorf("%v.%s is not checkpointed: add it to the type's unit, or list it as translated or derived", c.comp, f.Name)
			case 1:
			default:
				t.Errorf("%v.%s is listed more than once", c.comp, f.Name)
			}
		}
		for _, name := range c.units {
			f, _ := c.comp.FieldByName(name)
			if !holds(c.state, f.Type) {
				t.Errorf("%v has no field of %v's unit type %v", c.state, c.comp, f.Type)
			}
			for i := 0; i < f.Type.NumField(); i++ {
				if u := f.Type.Field(i); !u.IsExported() {
					t.Errorf("%v.%s: unexported, so the checkpoint drops it", f.Type, u.Name)
				}
			}
		}
	}
}

// holds reports whether state is t or has a field of type t.
func holds(state, t reflect.Type) bool {
	if state == t {
		return true
	}
	for i := 0; i < state.NumField(); i++ {
		if state.Field(i).Type == t {
			return true
		}
	}
	return false
}
