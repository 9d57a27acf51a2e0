package supervisor

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spider/internal/campaign"
	"spider/internal/expt"
	"spider/internal/obs"
)

// cliArchiveBytes replicates cmd/spider-exp's -archive-out path in
// process: sequential experiments in id order, each appended to one
// archive document. The supervisor's served bytes must equal these — a
// byte-level contract the supervisor-smoke CI job re-proves against the
// real binary.
func cliArchiveBytes(t *testing.T, sp campaign.Spec) []byte {
	t.Helper()
	ids, opts, _, err := sp.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	arch := expt.NewArchive(opts)
	for _, id := range ids {
		if _, err := expt.RunArchived(arch, id, opts); err != nil {
			t.Fatalf("RunArchived(%s): %v", id, err)
		}
	}
	return arch.Encode()
}

func postJSON(t *testing.T, url, body string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, b
}

// waitStatus polls the plain status endpoint until the campaign reaches
// a terminal state.
func waitStatus(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		code, b := getBody(t, base+"/campaigns/"+id+"/status")
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		switch st := strings.TrimSpace(string(b)); st {
		case StatusDone, StatusFailed, StatusCancelled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish in time", id)
	return ""
}

func TestCampaignEndToEnd(t *testing.T) {
	s, err := New(t.TempDir(), 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}

	sp := campaign.Spec{IDs: "fig2,fig3", Seed: 3, Scale: 0.2}
	code, out := postJSON(t, ts.URL+"/campaigns", `{"ids":"fig2,fig3","seed":3,"scale":0.2}`)
	if code != http.StatusCreated || out["id"] == "" {
		t.Fatalf("submit: HTTP %d %v", code, out)
	}
	id := out["id"]

	if st := waitStatus(t, ts.URL, id); st != StatusDone {
		cs, _ := s.Status(id)
		t.Fatalf("campaign ended %s (%s)", st, cs.Error)
	}

	// Served archive == the CLI's bytes for the same flags.
	code, got := getBody(t, ts.URL+"/campaigns/"+id+"/archive")
	if code != http.StatusOK {
		t.Fatalf("archive: HTTP %d: %s", code, got)
	}
	if want := cliArchiveBytes(t, sp); !bytes.Equal(got, want) {
		t.Fatalf("served archive differs from CLI archive (%d vs %d bytes)", len(got), len(want))
	}

	// Status JSON carries per-run progress.
	code, b := getBody(t, ts.URL+"/campaigns/"+id)
	if code != http.StatusOK {
		t.Fatalf("status JSON: HTTP %d", code)
	}
	var cs CampaignStatus
	if err := json.Unmarshal(b, &cs); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if cs.CompletedRuns != 2 || cs.TotalRuns != 2 || len(cs.Runs) != 2 || cs.Runs[0].Status != "done" {
		t.Fatalf("status = %+v", cs)
	}

	// The live scrape parses under the strict exposition checker and
	// reports the completed runs.
	code, m := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if err := obs.CheckExposition(m); err != nil {
		t.Fatalf("metrics scrape invalid: %v\n%s", err, m)
	}
	if !strings.Contains(string(m), "supervisor_runs_completed_total 2") {
		t.Fatalf("metrics missing run counter:\n%s", m)
	}
}

func TestSpecValidationFailsFast(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []string{
		`{"ids":"fig2,nope"}`,          // unknown experiment
		`{"ids":"fig2,fig2"}`,          // duplicate
		`{"ids":"all,fig2"}`,           // all mixed with explicit
		`{"ids":""}`,                   // empty
		`{"ids":"fig2","scale":2}`,     // scale out of range
		`{"ids":"fig2","workers":-1}`,  // negative workers
		`{"ids":"fig2","chaos":"no!"}`, // unresolvable chaos spec
		`{"ids":"fig2","bogus":true}`,  // unknown spec field
		`not json`,
	}
	for _, body := range bad {
		if code, out := postJSON(t, ts.URL+"/campaigns", body); code != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d %v, want 400", body, code, out)
		}
	}
	if len(s.List()) != 0 {
		t.Fatalf("rejected submissions registered campaigns: %v", s.List())
	}

	// Unknown campaign ids 404 everywhere.
	for _, p := range []string{"/campaigns/cXXXXXX", "/campaigns/cXXXXXX/status", "/campaigns/cXXXXXX/archive"} {
		if code, _ := getBody(t, ts.URL+p); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", p, code)
		}
	}
}

// TestSubmitRefusesMalformedBodies pins the POST /campaigns body rules
// the spec fields cannot: a valid spec followed by a second document,
// and a valid spec padded past maxSpecBytes, are each refused whole —
// neither runs the leading spec. The handler is called in process so
// the over-limit body needs no socket the server might reset.
func TestSubmitRefusesMalformedBodies(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()
	for _, c := range []struct{ name, body, want string }{
		{"trailing data", `{"ids":"fig2"} {"ids":"all"}`, "trailing data"},
		{"over the limit", `{"ids":"fig2"}` + strings.Repeat(" ", maxSpecBytes), "too large"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", strings.NewReader(c.body)))
		if rec.Code < 400 || rec.Code >= 500 || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: HTTP %d %s, want a 4xx naming %q", c.name, rec.Code, rec.Body, c.want)
		}
	}
	if l := s.List(); len(l) != 0 {
		t.Fatalf("refused bodies registered campaigns: %v", l)
	}
}

// TestKillRestartResume is the crash-resume contract: a supervisor that
// dies mid-campaign (here: drained after the first run, state left as
// "running" on disk — the CI job does it with a real SIGKILL) must
// resume the campaign on restart and serve an archive byte-identical
// to an uninterrupted run.
func TestKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	sp := campaign.Spec{IDs: "fig2,fig3,fig4", Seed: 5, Scale: 0.2}
	want := cliArchiveBytes(t, sp)

	s1, err := New(dir, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id, err := s1.Submit(sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait for the first run to complete, then drain: the runner stops
	// between runs and the on-disk state stays resumable.
	deadline := time.Now().Add(time.Minute)
	for {
		cs, ok := s1.Status(id)
		if !ok {
			t.Fatal("campaign vanished")
		}
		if cs.CompletedRuns >= 1 || cs.Status != StatusRunning && cs.Status != StatusPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first run did not complete in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// A fresh process over the same store resumes the campaign.
	s2, err := New(dir, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if !s2.Wait(id) {
		t.Fatalf("campaign %s not adopted on restart", id)
	}
	cs, _ := s2.Status(id)
	if cs.Status != StatusDone {
		t.Fatalf("resumed campaign ended %s (%s)", cs.Status, cs.Error)
	}
	got, _, _ := s2.ArchiveBytes(id)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed archive differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestConcurrentCampaignsDeterminism pins the isolation claim: three
// campaigns executing concurrently (including two identical specs)
// produce archives byte-identical to sequential, single-campaign runs
// of the same specs.
func TestConcurrentCampaignsDeterminism(t *testing.T) {
	specs := []campaign.Spec{
		{IDs: "fig2,fig3", Seed: 11, Scale: 0.2},
		{IDs: "fig3,fig4", Seed: 12, Scale: 0.2},
		{IDs: "fig2,fig3", Seed: 11, Scale: 0.2}, // duplicate of the first
	}
	want := make([][]byte, len(specs))
	for i, sp := range specs {
		want[i] = cliArchiveBytes(t, sp)
	}

	s, err := New(t.TempDir(), 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ids := make([]string, len(specs))
	for i, sp := range specs {
		if ids[i], err = s.Submit(sp); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		s.Wait(id)
		cs, _ := s.Status(id)
		if cs.Status != StatusDone {
			t.Fatalf("campaign %d ended %s (%s)", i, cs.Status, cs.Error)
		}
		got, _, _ := s.ArchiveBytes(id)
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("campaign %d: concurrent archive differs from sequential reference", i)
		}
	}
	if !bytes.Equal(want[0], want[2]) {
		t.Fatal("identical specs produced different references (harness bug)")
	}
}

func TestCancelAndArchiveGating(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(campaign.Spec{IDs: "fig2,fig3,fig4,table3", Seed: 2, Scale: 0.2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	code, out := postJSON(t, ts.URL+"/campaigns/"+id+"/cancel", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d %v", code, out)
	}
	s.Wait(id)
	cs, _ := s.Status(id)
	switch cs.Status {
	case StatusCancelled:
		// The archive endpoint refuses a partial document.
		if code, b := getBody(t, ts.URL+"/campaigns/"+id+"/archive"); code != http.StatusConflict {
			t.Fatalf("archive of cancelled campaign: HTTP %d: %s", code, b)
		}
	case StatusDone:
		// Every run beat the cancellation — legal, nothing to assert.
	default:
		t.Fatalf("cancelled campaign ended %s (%s)", cs.Status, cs.Error)
	}

	// Cancelling a terminal campaign reports its state, not "cancelling".
	if st, ok := s.Cancel(id); !ok || st == "cancelling" {
		t.Fatalf("Cancel(terminal) = %q, %v", st, ok)
	}
}

// TestDrainRejectsSubmissions pins the graceful-shutdown contract for
// the submission path.
func TestDrainRejectsSubmissions(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := s.Submit(campaign.Spec{IDs: "fig2"}); err == nil {
		t.Fatal("drained supervisor accepted a campaign")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _ := postJSON(t, ts.URL+"/campaigns", `{"ids":"fig2"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
}

// cliSpec builds a campaign spec the way spider-exp does, from its
// command line.
func cliSpec(t *testing.T, args string) campaign.Spec {
	t.Helper()
	fs := flag.NewFlagSet("spider-exp", flag.ContinueOnError)
	spec := campaign.Flags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	sp, err := spec()
	if err != nil {
		t.Fatalf("flags %q: %v", args, err)
	}
	return sp
}

// TestSpecFingerprintMatchesCLI: spider-exp's flags and a POST body
// naming the same campaign resolve to the same ids, the same archive
// identity and the same campaign fingerprint — with the admission
// stagger unset, and set with the ramp left out of the body.
func TestSpecFingerprintMatchesCLI(t *testing.T) {
	cases := []struct {
		flags, body string
		campFP      string // pinned campaign fingerprint ("" = not pinned)
		archFP      string // pinned archive config_fp ("" = not pinned)
	}{
		{"-id fig3,fig2 -seed 9 -scale 0.5 -chaos mild",
			`{"ids":"fig3,fig2","seed":9,"scale":0.5,"chaos":"mild"}`, "", ""},
		{"-id fig2,table2 -seed 3 -scale 0.2",
			`{"ids":"fig2,table2","seed":3,"scale":0.2}`, "155242b6c9d4d3d7", ""},
		{"-id fig2 -seed 3 -scale 0.2 -join-spread 500ms",
			`{"ids":"fig2","seed":3,"scale":0.2,"join_spread_ms":500}`, "", "48e44613e0800b0a"},
		{"-id fig3,fig2 -seed 9 -scale 0.5 -chaos mild -join-spread 500ms -join-ramp exp",
			`{"ids":"fig3,fig2","seed":9,"scale":0.5,"chaos":"mild","join_spread_ms":500,"join_ramp":"exp"}`,
			"f0dff6b766c8d89a", ""},
	}
	for _, tc := range cases {
		cliIDs, cliOpts, cliFP, err := cliSpec(t, tc.flags).Resolve()
		if err != nil {
			t.Fatalf("%s: resolve: %v", tc.flags, err)
		}
		// The supervisor's path: decode the body, normalize at
		// submission, resolve.
		sp, err := decodeSpec(strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.body, err)
		}
		ids, opts, fp, err := sp.Normalize().Resolve()
		if err != nil {
			t.Fatalf("%s: resolve: %v", tc.body, err)
		}
		if fmt.Sprint(ids) != fmt.Sprint(cliIDs) {
			t.Errorf("%s: ids %v, CLI %v", tc.body, ids, cliIDs)
		}
		if fp != cliFP || (tc.campFP != "" && fp != tc.campFP) {
			t.Errorf("%s: campaign fingerprint %s, CLI %s, pinned %q", tc.body, fp, cliFP, tc.campFP)
		}
		archFP, cliArchFP := expt.ConfigFP(opts), expt.ConfigFP(cliOpts)
		if archFP != cliArchFP || (tc.archFP != "" && archFP != tc.archFP) {
			t.Errorf("%s: archive config_fp %s, CLI %s, pinned %q", tc.body, archFP, cliArchFP, tc.archFP)
		}
		// Workers and shards must not move the fingerprint (results are
		// invariant in them).
		sp.Workers, sp.Shards = 7, 4
		if _, _, fp2, _ := sp.Normalize().Resolve(); fp2 != fp {
			t.Errorf("%s: fingerprint moved with workers/shards: %s vs %s", tc.body, fp, fp2)
		}
	}
}

// TestStaggeredCampaignMatchesCLI: a staggered campaign submitted
// without a ramp serves the bytes of spider-exp -archive-out with the
// same flags (its ramp is uniform either way).
func TestStaggeredCampaignMatchesCLI(t *testing.T) {
	s, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Shutdown(context.Background())
	id, err := s.Submit(campaign.Spec{IDs: "fig2", Seed: 3, Scale: 0.2, JoinSpreadMS: 500})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.Wait(id)
	got, status, _ := s.ArchiveBytes(id)
	if status != StatusDone {
		t.Fatalf("campaign ended %s", status)
	}
	want := cliArchiveBytes(t, cliSpec(t, "-id fig2 -seed 3 -scale 0.2 -join-spread 500ms"))
	if !bytes.Equal(got, want) {
		t.Fatalf("served archive differs from CLI archive (%d vs %d bytes)", len(got), len(want))
	}
	// The digest of spider-exp's archive for these flags.
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != "bbaa910fcbf72b68376e9a41d9802e19a685cbdbcd2053b074713b97a47c40f3" {
		t.Fatalf("archive sha256 %s", sum)
	}
}

// TestLegacyStaggeredRecordResumes: a store record written before ramps
// were canonical — a spread with no ramp, fingerprinted with the empty
// ramp — still verifies against its recorded config_fp, resumes, and
// serves the archive it would have served then.
func TestLegacyStaggeredRecordResumes(t *testing.T) {
	dir := t.TempDir()
	rec := `{
	"format": "spider-supervisor-campaign",
	"version": 1,
	"id": "c000001",
	"spec": {"ids": "fig2", "seed": 3, "scale": 0.2, "join_spread_ms": 500},
	"status": "running",
	"config_fp": "2e1be1f43e2b59ec",
	"completed": [],
	"archive": null
}
`
	if err := os.WriteFile(filepath.Join(dir, "c000001.campaign.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(dir, 1)
	if err != nil {
		t.Fatalf("reopen legacy store: %v", err)
	}
	defer s.Shutdown(context.Background())
	if !s.Wait("c000001") {
		t.Fatal("legacy campaign not adopted")
	}
	got, status, _ := s.ArchiveBytes("c000001")
	if status != StatusDone {
		cs, _ := s.Status("c000001")
		t.Fatalf("legacy campaign ended %s (%s)", status, cs.Error)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != "dbaf40cac69da244e725198f09ca67bd7f6972b9a9d4ea006a57ef2a8ffcec6e" {
		t.Fatalf("legacy archive sha256 %s", sum)
	}
}
