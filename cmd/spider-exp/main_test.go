package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailFast: every input a campaign spec refuses exits 2 before any
// experiment runs, so nothing is printed and no archive is written.
func TestFailFast(t *testing.T) {
	for _, args := range []string{
		"-id fig2 -scale 2",
		"-id fig2 -scale -0.5",
		"-id fig2 -scale 0",
		"-id fig2,chaos -chaos bogus!",
		"-id fig2 -join-spread 1500us",
		"-id fig2 -join-spread 20s -join-ramp linear",
		"-id fig2,nope",
	} {
		archive := filepath.Join(t.TempDir(), "a.json")
		var out strings.Builder
		if code := run(append(strings.Fields(args), "-archive-out", archive), &out); code != 2 {
			t.Errorf("%s: exit %d, want 2", args, code)
		}
		if out.Len() > 0 {
			t.Errorf("%s: printed before failing:\n%s", args, out.String())
		}
		if _, err := os.Stat(archive); !os.IsNotExist(err) {
			t.Errorf("%s: archive written (%v)", args, err)
		}
	}
}

// TestCampaignIdentity pins the fingerprints spider-exp writes: the
// -resume state's campaign identity, and the archive's config_fp and
// bytes for a staggered campaign with the ramp left at its default.
func TestCampaignIdentity(t *testing.T) {
	configFP := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			ConfigFP string `json:"config_fp"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.ConfigFP
	}
	for _, tc := range []struct{ args, state string }{
		{"-id fig2,table2 -seed 3 -scale 0.2", "155242b6c9d4d3d7"},
		{"-id fig3,fig2 -seed 9 -scale 0.5 -chaos mild -join-spread 500ms -join-ramp exp", "f0dff6b766c8d89a"},
	} {
		dir := t.TempDir()
		state := filepath.Join(dir, "run.campaign")
		args := append(strings.Fields(tc.args), "-archive-out", filepath.Join(dir, "a.json"), "-resume", state)
		if code := run(args, io.Discard); code != 0 {
			t.Fatalf("%s: exit %d", tc.args, code)
		}
		if got := configFP(state); got != tc.state {
			t.Errorf("%s: campaign state config_fp %s, want %s", tc.args, got, tc.state)
		}
	}

	archive := filepath.Join(t.TempDir(), "a.json")
	if code := run([]string{"-id", "fig2", "-seed", "3", "-scale", "0.2", "-join-spread", "500ms", "-archive-out", archive}, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if got := configFP(archive); got != "48e44613e0800b0a" {
		t.Errorf("archive config_fp %s, want 48e44613e0800b0a", got)
	}
	b, _ := os.ReadFile(archive)
	if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != "bbaa910fcbf72b68376e9a41d9802e19a685cbdbcd2053b074713b97a47c40f3" {
		t.Errorf("archive sha256 %s", sum)
	}
}
