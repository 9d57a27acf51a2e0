package archive

import "fmt"

// Observation is one flat tabular row unpacked from an archive: a
// numeric field of one sub-measurement and its value. This is the
// representation statistical diffing works on — any archive reduces to
// a plain table of (field, value) rows.
type Observation struct {
	Field string // e.g. "client.total_bytes", "result.table2.row=…/col=…"
	Num   float64
}

func num(field string, v float64) Observation {
	return Observation{Field: field, Num: v}
}

// Flatten unpacks the archive into tabular observations, in document
// order. Per-bin ledger entries stay inside the ledger (they are fields
// of one sub-measurement, summarized here as counts); every numeric
// scalar that regression analysis compares becomes its own row. A
// string result has no mean to compare, so it yields no row.
func (a *Archive) Flatten() []Observation {
	var out []Observation
	for _, e := range a.Experiments {
		prefix := "experiment." + e.Name
		out = append(out, num(prefix+".clients", float64(len(e.Clients))))
		for _, c := range e.Clients {
			out = append(out,
				num("client.total_bytes", float64(c.TotalBytes)),
				num("client.bins_nonzero", float64(len(c.Bins))),
				num("client.joins", float64(len(c.Joins))),
				num("client.join_successes", float64(c.JoinSuccesses)),
				num("client.dhcp_failures", float64(c.DHCPFailures)),
				num("client.switches", float64(c.Switches)),
				num("client.assoc_attempts", float64(c.AssocAttempts)),
				num("client.soft_handoffs", float64(c.SoftHandoffs)),
				num("client.blacklisted", float64(c.Blacklisted)),
				num("client.segments_sent", float64(c.SegmentsSent)),
				num("client.retx_segments", float64(c.RetxSegments)),
				num("client.bytes_acked", float64(c.BytesAcked)),
				num("client.invariants", float64(c.Invariants)),
			)
		}
		for _, f := range e.Faults {
			out = append(out,
				num("fault."+f.Class+".injected", float64(f.Injected)),
				num("fault."+f.Class+".recovered", float64(f.Recovered)),
				num("fault."+f.Class+".ttr_total_us", float64(f.TTRTotalUS)),
			)
		}
		for _, m := range e.Metrics {
			if m.Kind == "histogram" {
				out = append(out,
					num("metric."+m.Name+".sum", m.Sum),
					num("metric."+m.Name+".count", float64(m.Count)))
				continue
			}
			out = append(out, num("metric."+m.Name, m.Value))
		}
		for _, s := range e.Spans {
			out = append(out,
				num(fmt.Sprintf("span.%s.%s.count", s.Cat, s.Name), float64(s.Count)),
				num(fmt.Sprintf("span.%s.%s.total_us", s.Cat, s.Name), float64(s.TotalDurUS)))
		}
		for _, r := range e.Results {
			if r.Num != nil {
				out = append(out, num("result."+r.Name+"."+r.Key, *r.Num))
			}
		}
	}
	return out
}
