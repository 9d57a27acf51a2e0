package scenario

import (
	"math/rand"
	"time"

	"spider/internal/core"
	"spider/internal/sim"
	"spider/internal/tcpsim"
	"spider/internal/wifi"
)

// Workload decides what traffic a client runs over each association.
// The default (nil) is the paper's measurement workload: an unbounded
// HTTP-like bulk download per joined AP. WebWorkload models the
// interactive usage the paper's introduction motivates (Pandora, web
// search): fetch a page, think, fetch the next.
type Workload interface {
	// onConnect is invoked when an interface obtains a lease; the
	// implementation installs whatever traffic it wants on the conn.
	onConnect(c *Client, ifc *core.Iface, cn *conn)
}

// BulkWorkload is the default: one unbounded download per association.
type BulkWorkload struct{}

func (BulkWorkload) onConnect(c *Client, ifc *core.Iface, cn *conn) {
	cn.sender = c.newSender(cn, -1, nil)
	cn.sender.Start()
}

// WebWorkload is a page-fetch/think loop per association.
type WebWorkload struct {
	// PageBytes draws each page's transfer size (default: 100 KB pages).
	PageBytes func(r int64) int64
	// Think is the gap between a completed page and the next request.
	Think sim.Dist
}

// DefaultWebWorkload browses 100 KB pages with 2 s mean think time.
func DefaultWebWorkload() *WebWorkload {
	return &WebWorkload{
		PageBytes: func(int64) int64 { return 100_000 },
		Think:     sim.Exponential{MeanD: 2 * time.Second, Cap: 10 * time.Second},
	}
}

// WebStats accumulates page-level outcomes for a client.
type WebStats struct {
	PagesCompleted int
	LoadTimes      []time.Duration
	PagesAborted   int // connection died mid-fetch
}

// The workload is a single browsing session per client: one page in
// flight at a time, routed through whatever association is alive. When
// the serving association dies mid-page, the page is retried through
// another live association (the session soft-hands-off); if none exists,
// the session pauses until the driver reconnects.
func (w *WebWorkload) onConnect(c *Client, ifc *core.Iface, cn *conn) {
	if c.webActive {
		return // the session already runs through another association
	}
	c.webActive = true
	w.fetchOn(c, cn, c.webPage)
}

// anyLiveConn returns some live association's conn (deterministic pick).
func (c *Client) anyLiveConn() *conn {
	var best *conn
	var bestKey string
	for b, cn := range c.conns {
		if key := b.String(); best == nil || key < bestKey {
			best, bestKey = cn, key
		}
	}
	return best
}

func (w *WebWorkload) fetchOn(c *Client, cn *conn, page int64) {
	if cn == nil || c.conns[cn.node.AP.Addr()] != cn {
		w.resume(c, page)
		return
	}
	size := int64(100_000)
	if w.PageBytes != nil {
		size = w.PageBytes(page)
	}
	start := c.World.Kernel.Now()
	cn.onAbort = func() {
		c.Web.PagesAborted++
		w.resume(c, page) // retry the same page elsewhere
	}
	cn.sender = c.newSender(cn, size, func() {
		cn.onAbort = nil
		c.Web.PagesCompleted++
		c.Web.LoadTimes = append(c.Web.LoadTimes, c.World.Kernel.Now()-start)
		c.webPage = page + 1
		think := 2 * time.Second
		if w.Think != nil {
			think = w.Think.Sample(webThinkStream(c.World.Kernel, c.Driver.Addr()))
		}
		c.World.Kernel.After(think, func() {
			// Continue on the same association if it survived the think.
			next := cn
			if c.conns[cn.node.AP.Addr()] != cn {
				next = c.anyLiveConn()
			}
			w.fetchOn(c, next, page+1)
		})
	})
	cn.sender.Start()
}

// webThinkStream returns the client's think-time stream, named
// "scenario.web.<addr>". The name is assembled on the stack, so finding
// the stream after the first page allocates nothing.
func webThinkStream(k *sim.Kernel, addr wifi.Addr) *rand.Rand {
	var buf [32]byte // the prefix and one address: 30 bytes
	b := append(buf[:0], "scenario.web."...)
	return k.RNGBytes(addr.AppendTo(b))
}

// resume restarts the session on any surviving association, or parks it
// until the next connection.
func (w *WebWorkload) resume(c *Client, page int64) {
	c.webPage = page
	if cn := c.anyLiveConn(); cn != nil {
		w.fetchOn(c, cn, page)
		return
	}
	c.webActive = false
}

// newSender builds a TCP sender wired through the conn's AP, with the
// standard downlink path. size -1 is unbounded; onDone fires for finite
// flows.
func (c *Client) newSender(cn *conn, size int64, onDone func()) *tcpsim.Sender {
	// The conn's previous sender (a finished page fetch being replaced)
	// leaves the stats ledger here, not the world.
	c.sc.TCPClosed = c.sc.TCPClosed.Add(cn.sender.Stats())
	c.sc.NextFlow++
	flowID := c.sc.NextFlow
	cn.receiver = tcpsim.NewReceiver(flowID)
	cn.delivered = 0
	return c.downlinkSender(cn.node, flowID, size, onDone)
}

// downlinkSender builds flow flowID's sender, transmitting down node's
// backhaul link; a checkpoint restore rebuilds senders here too.
func (c *Client) downlinkSender(node *APNode, flowID uint32, size int64, onDone func()) *tcpsim.Sender {
	s := tcpsim.NewSender(c.World.Kernel, flowID, size, func(seg *tcpsim.Segment) {
		// The segment stays alive across the backhaul delay; Arrive
		// encodes it at the AP and recycles it into the world's pool.
		c.carry(node, seg, segDown)
	}, onDone)
	s.SetSegPool(&c.World.segPool)
	return s
}

// SetWorkload selects the client's traffic pattern. Call before the
// simulation produces connections; associations made earlier keep their
// previous workload.
func (c *Client) SetWorkload(w Workload) { c.workload = w }
