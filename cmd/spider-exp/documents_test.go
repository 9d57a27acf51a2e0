package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spider/internal/archive"
	"spider/internal/campaign"
	"spider/internal/checkpoint"
	"spider/internal/supervisor"
)

// TestDocumentsDecodeStrictly feeds every document kind the programs
// read through the decoder that really reads it: the archive, the
// checkpoint, this CLI's campaign state, the supervisor's campaign
// record and the supervisor's POST /campaigns spec. A valid document
// must load; the same document with an unknown field, with data after
// it, with a wrong format or with a version outside the decoder's
// window must not. The spec carries no format or version, so only the
// first two apply to it.
func TestDocumentsDecodeStrictly(t *testing.T) {
	_, _, specFP, err := campaign.Spec{IDs: "fig2"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		name       string
		format     string // "" for a document without a header
		minV, maxV int
		doc        func(format string, version int) string
		decode     func(t *testing.T, doc string) error
	}{
		{
			"archive", archive.Format, archive.Version, archive.Version,
			func(f string, v int) string {
				return fmt.Sprintf(`{"format":%q,"version":%d,"run_id":"r","seed":1,"config_fp":"c","experiments":null}`, f, v)
			},
			func(t *testing.T, doc string) error {
				_, err := archive.Decode([]byte(doc))
				return err
			},
		},
		{
			"checkpoint", checkpoint.Format, 1, checkpoint.Version,
			func(f string, v int) string {
				return fmt.Sprintf(`{"format":%q,"version":%d,"seed":1,"config_fp":"c","city":{}}`, f, v)
			},
			func(t *testing.T, doc string) error {
				_, err := checkpoint.Decode([]byte(doc))
				return err
			},
		},
		{
			"campaign state", campaignFormat, campaignVersion, campaignVersion,
			func(f string, v int) string {
				return fmt.Sprintf(`{"format":%q,"version":%d,"config_fp":%q,"completed":["fig2"],"archive":null}`, f, v, specFP)
			},
			func(t *testing.T, doc string) error {
				path := filepath.Join(t.TempDir(), "run.campaign")
				if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := loadCampaign(path, specFP)
				return err
			},
		},
		{
			// A cancelled campaign loads without starting a run.
			"supervisor record", "spider-supervisor-campaign", 1, 1,
			func(f string, v int) string {
				return fmt.Sprintf(`{"format":%q,"version":%d,"id":"c000001","spec":{"ids":"fig2"},"status":"cancelled",`+
					`"config_fp":%q,"completed":null,"archive":null}`, f, v, specFP)
			},
			func(t *testing.T, doc string) error {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "c000001.campaign.json"), []byte(doc), 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := supervisor.New(dir, 1)
				if err == nil {
					s.Shutdown(context.Background())
				}
				return err
			},
		},
		{
			// The server is drained first, so a spec that decodes and
			// resolves answers 503 and no campaign ever runs; a body the
			// decoder refuses answers 400.
			"campaign spec", "", 0, 0,
			func(string, int) string { return `{"ids":"fig2","seed":3}` },
			func(t *testing.T, doc string) error {
				s, err := supervisor.New(t.TempDir(), 1)
				if err != nil {
					t.Fatal(err)
				}
				s.Shutdown(context.Background())
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", strings.NewReader(doc)))
				if n := len(s.List()); n != 0 {
					t.Fatalf("POST %s registered %d campaigns", doc, n)
				}
				if rec.Code == http.StatusServiceUnavailable {
					return nil
				}
				var out struct{ Error string }
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusBadRequest {
					t.Fatalf("POST %s: HTTP %d %s", doc, rec.Code, rec.Body)
				}
				return errors.New(out.Error)
			},
		},
	}
	for _, k := range kinds {
		valid := k.doc(k.format, k.maxV)
		if err := k.decode(t, valid); err != nil {
			t.Fatalf("%s: valid document refused: %v\n%s", k.name, err, valid)
		}
		refused := []struct{ name, doc, want string }{
			{"unknown field", `{"bogus":1,` + valid[1:], `unknown field "bogus"`},
			{"trailing data", valid + ` {}`, "trailing data"},
		}
		if k.format != "" {
			refused = append(refused,
				struct{ name, doc, want string }{"wrong format", k.doc("other", k.maxV), `format "other"`},
				struct{ name, doc, want string }{"version below window", k.doc(k.format, k.minV-1), fmt.Sprintf("version %d unsupported", k.minV-1)},
				struct{ name, doc, want string }{"version above window", k.doc(k.format, k.maxV+1), fmt.Sprintf("version %d unsupported", k.maxV+1)},
			)
		}
		for _, r := range refused {
			err := k.decode(t, r.doc)
			if err == nil {
				t.Errorf("%s: %s accepted:\n%s", k.name, r.name, r.doc)
			} else if !strings.Contains(err.Error(), r.want) {
				t.Errorf("%s: %s refused with %q, want it to name %q", k.name, r.name, err, r.want)
			}
		}
	}
}
