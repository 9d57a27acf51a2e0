package dhcp

import (
	"testing"
	"time"

	"spider/internal/sim"
	"spider/internal/wifi"
)

// TestChaosDropSuppressesReplies: Drop=1 silences the server entirely
// and counts every swallowed message.
func TestChaosDropSuppressesReplies(t *testing.T) {
	k := sim.NewKernel(1)
	replies := 0
	s := fastServer(k, func(to wifi.Addr, m Message) { replies++ })
	faults := []string{}
	s.SetChaos(k.RNG("chaos"), Chaos{Drop: 1}, func(kind string) { faults = append(faults, kind) })
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	s.HandleMessage(&Message{Op: Request, XID: 1, ClientMAC: mac(1), YourIP: 0x0A000064})
	k.Run(time.Second)
	if replies != 0 {
		t.Fatalf("Drop=1 let %d replies through", replies)
	}
	if s.ChaosDrops != 2 || len(faults) != 2 {
		t.Fatalf("drops=%d faults=%v, want 2/2", s.ChaosDrops, faults)
	}
}

// TestChaosNakRefusesRequests: Nak=1 answers every Request with a NAK
// (and treats Discovers as drops — a NAK for a DISCOVER is meaningless).
func TestChaosNakRefusesRequests(t *testing.T) {
	k := sim.NewKernel(2)
	var got []*Message
	s := fastServer(k, func(to wifi.Addr, m Message) { got = append(got, &m) })
	s.SetChaos(k.RNG("chaos"), Chaos{Nak: 1}, nil)
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	s.HandleMessage(&Message{Op: Request, XID: 2, ClientMAC: mac(1), YourIP: 0x0A000064})
	k.Run(time.Second)
	if len(got) != 1 || got[0].Op != Nak {
		t.Fatalf("replies %v, want exactly one NAK", got)
	}
	if s.ChaosNaks != 1 || s.ChaosDrops != 1 {
		t.Fatalf("naks=%d drops=%d, want 1/1", s.ChaosNaks, s.ChaosDrops)
	}
}

// TestChaosSlowDelaysReplies: SlowProb=1 adds the think-time to every
// reply but still answers.
func TestChaosSlowDelaysReplies(t *testing.T) {
	k := sim.NewKernel(3)
	var offerAt time.Duration
	s := fastServer(k, func(to wifi.Addr, m Message) {
		if m.Op == Offer {
			offerAt = k.Now()
		}
	})
	s.SetChaos(k.RNG("chaos"), Chaos{SlowProb: 1, SlowThink: sim.Constant{V: 2 * time.Second}}, nil)
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	k.Run(5 * time.Second)
	// fastServer's OfferLatency is 50 ms; the slow episode adds 2 s.
	if want := 2050 * time.Millisecond; offerAt != want {
		t.Fatalf("offer at %v, want %v", offerAt, want)
	}
	if s.ChaosSlows != 1 {
		t.Fatalf("slows=%d, want 1", s.ChaosSlows)
	}
}

// TestServerResetForgetsBindings: Reset drops all bindings, modelling a
// rebooted AP whose DHCP state is gone.
func TestServerResetForgetsBindings(t *testing.T) {
	k := sim.NewKernel(4)
	var offers []IP
	s := fastServer(k, func(to wifi.Addr, m Message) {
		if m.Op == Offer {
			offers = append(offers, m.YourIP)
		}
	})
	s.HandleMessage(&Message{Op: Discover, XID: 1, ClientMAC: mac(1)})
	k.Run(time.Second)
	if len(offers) != 1 {
		t.Fatalf("offers: %v", offers)
	}
	s.Reset()
	// A different client discovering after the reset gets the first pool
	// address again: the old binding is gone.
	s.HandleMessage(&Message{Op: Discover, XID: 2, ClientMAC: mac(2)})
	k.Run(2 * time.Second)
	if len(offers) != 2 || offers[1] != offers[0] {
		t.Fatalf("post-reset offer %v should reuse the freed pool head %v", offers[1:], offers[0])
	}
}
