package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"spider/internal/archive"
	"spider/internal/docfile"
)

// envelope mirrors how consumers wrap State: format/version fields plus
// the embedded resumable core.
type envelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	State
}

func TestDoneMarkDone(t *testing.T) {
	var s State
	if s.Done("fig2") {
		t.Fatal("empty state claims fig2 done")
	}
	s.MarkDone("fig2")
	s.MarkDone("fig2") // idempotent
	if !s.Done("fig2") || len(s.Completed) != 1 {
		t.Fatalf("Completed = %v, want exactly [fig2]", s.Completed)
	}
}

func TestVerify(t *testing.T) {
	s := State{ConfigFP: "abc"}
	if err := s.Verify("abc"); err != nil {
		t.Fatalf("Verify(match): %v", err)
	}
	if err := s.Verify("xyz"); err == nil {
		t.Fatal("Verify accepted a different campaign")
	}
}

// TestSaveLoadRoundTrip pins State's place in its envelopes: the
// embedded fields inline beside the envelope's own, and the partial
// archive survives the docfile round trip byte-stably.
func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.state")
	doc := envelope{Format: "test-campaign", Version: 1}
	doc.ConfigFP = "fp1"
	doc.Archive = archive.New(7, "fp1")
	doc.MarkDone("fig2")

	if err := docfile.WriteFile(path, &doc); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b1, []byte("{\n\t\"format\": \"test-campaign\",\n\t\"version\": 1,\n\t\"config_fp\": \"fp1\",")) {
		t.Fatalf("State does not inline after the envelope header:\n%s", b1)
	}
	var got envelope
	ok, err := docfile.ReadFile(path, &got)
	if err != nil || !ok {
		t.Fatalf("ReadFile: ok=%v err=%v", ok, err)
	}
	if got.Format != "test-campaign" || got.Version != 1 || !got.Done("fig2") {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Archive == nil || got.Archive.RunID != doc.Archive.RunID {
		t.Fatal("round trip lost the archive")
	}
	b2, err := docfile.Encode(&got)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("encode(load(save(doc))) is not byte-stable")
	}
}
