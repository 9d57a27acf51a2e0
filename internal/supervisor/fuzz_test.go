package supervisor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// FuzzCampaignSpec is the campaign API's input contract: any POST body,
// bounded and decoded exactly as the handler decodes it, is either
// refused with an error or resolves — never a panic. A spec that
// resolves must resolve again to the same ids, options and fingerprint,
// and so must the normalized spec after the JSON round trip the store
// gives it: a campaign's identity cannot drift between submission and
// restart.
func FuzzCampaignSpec(f *testing.F) {
	for _, s := range []string{
		// Specs the supervisor tests submit.
		`{"ids":"fig2,fig3","seed":3,"scale":0.2}`,
		`{"ids":"fig2,fig3,fig4","seed":5,"scale":0.2}`,
		`{"ids":"fig2,fig3","seed":11,"scale":0.2}`,
		`{"ids":"fig3,fig4","seed":12,"scale":0.2}`,
		`{"ids":"fig2,fig3,fig4,table3","seed":2,"scale":0.2}`,
		`{"ids":"fig3,fig2","seed":9,"scale":0.5,"chaos":"mild"}`,
		`{"ids":"fig2"}`,
		// The bodies they expect refused.
		`{"ids":"fig2,nope"}`,
		`{"ids":"fig2,fig2"}`,
		`{"ids":"all,fig2"}`,
		`{"ids":""}`,
		`{"ids":"fig2","scale":2}`,
		`{"ids":"fig2","workers":-1}`,
		`{"ids":"fig2","chaos":"no!"}`,
		`{"ids":"fig2","bogus":true}`,
		`not json`,
		// Every remaining field set.
		`{"ids":"all","seed":-4,"scale":1e-9,"chaos":"aggressive","workers":3,"shards":2,"join_spread_ms":500,"join_ramp":"exp"}`,
		`{"ids":"fig2","join_spread_ms":-1}`,
		`{"ids":"fig2","join_ramp":"linear"}`,
		// A staggered spec without a ramp.
		`{"ids":"fig2","seed":3,"scale":0.2,"join_spread_ms":500}`,
		// A second document after the spec, and a valid spec padded
		// past the body limit: both refused whole.
		`{"ids":"fig2"} {"ids":"all"}`,
		`{"ids":"fig2"}` + strings.Repeat(" ", maxSpecBytes),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := decodeSpec(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), maxSpecBytes))
		if err != nil {
			return
		}
		sp = sp.Normalize()
		ids, opts, fp, err := sp.Resolve()
		if err != nil {
			return
		}
		ids2, opts2, fp2, err := sp.Resolve()
		if err != nil || fp2 != fp || fmt.Sprint(ids2) != fmt.Sprint(ids) || opts2 != opts {
			t.Fatalf("spec %+v resolved twice: %v %q, then %v %q (%v)", sp, ids, fp, ids2, fp2, err)
		}
		stored, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeSpec(bytes.NewReader(stored))
		if err != nil {
			t.Fatalf("stored spec %s does not decode: %v", stored, err)
		}
		if _, _, fp3, err := back.Resolve(); err != nil || fp3 != fp {
			t.Fatalf("stored spec %s re-resolved to %q (%v), want %q", stored, fp3, err, fp)
		}
	})
}
