package docfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// doc is a small versioned document with a nested value, a list and a
// string the canonical encoder must not HTML-escape.
type doc struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Note    string   `json:"note"`
	Done    []string `json:"done"`
	Inner   *struct {
		N int `json:"n"`
	} `json:"inner"`
}

func sample() doc {
	d := doc{Format: "test-doc", Version: 1, Note: "<a&b>", Done: []string{"fig2"}}
	d.Inner = &struct {
		N int `json:"n"`
	}{N: 7}
	return d
}

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	want := sample()
	if err := WriteFile(path, &want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("os.ReadFile: %v", err)
	}
	if !bytes.HasSuffix(b, []byte("}\n")) || bytes.HasSuffix(b, []byte("\n\n")) {
		t.Fatalf("canonical encoding must end with exactly one newline: %q", b)
	}
	if !bytes.Contains(b, []byte("\n\t\"note\": \"<a&b>\"")) {
		t.Fatalf("encoding is not tab-indented and unescaped:\n%s", b)
	}
	var got doc
	found, err := ReadFile(path, &got)
	if err != nil || !found {
		t.Fatalf("ReadFile: found=%v err=%v", found, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the document: %+v, want %+v", got, want)
	}
	// Saving the loaded document must be byte-stable.
	re, err := Encode(&got)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(re, b) {
		t.Fatalf("encode(read(write(doc))) is not byte-stable:\n%s\nvs\n%s", re, b)
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteFile(path, "old"); err != nil {
		t.Fatalf("WriteFile old: %v", err)
	}
	if err := WriteFile(path, "new"); err != nil {
		t.Fatalf("WriteFile new: %v", err)
	}
	var got string
	if _, err := ReadFile(path, &got); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got != "new" {
		t.Fatalf("content = %q, want %q", got, "new")
	}
}

func TestWriteFileLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFile(path, "data"); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Fatalf("dir holds %d entries, want 1", len(ents))
	}
}

func TestWriteFileMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope", "state.json")
	if err := WriteFile(path, "data"); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

func TestReadFileMissing(t *testing.T) {
	var got doc
	found, err := ReadFile(filepath.Join(t.TempDir(), "absent"), &got)
	if err != nil {
		t.Fatalf("ReadFile(missing): %v", err)
	}
	if found {
		t.Fatal("ReadFile reported a missing file as existing")
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	for _, c := range []struct{ name, in, want string }{
		{"empty", ``, "eof"},
		{"garbage", `not json`, "invalid"},
		{"truncated", `{"format":"x","version":1`, "unexpected eof"},
		{"unknown field", `{"format":"x","version":1,"bogus":1}`, "unknown field"},
		{"trailing document", `{"format":"x","version":1} {}`, "trailing data"},
		{"trailing garbage", `{"format":"x","version":1} trailing`, "trailing data"},
		{"wrong type", `{"format":"x","version":"1"}`, "cannot unmarshal"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var d doc
			err := Decode(strings.NewReader(c.in), &d)
			if err == nil {
				t.Fatalf("Decode accepted %q", c.in)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// A reader that fails after the document (a body over its size
	// limit) is reported as that failure, not as trailing data.
	boom := errors.New("boom")
	var d0 doc
	if err := Decode(io.MultiReader(strings.NewReader(`{"format":"x"}`), iotest.ErrReader(boom)), &d0); !errors.Is(err, boom) {
		t.Fatalf("Decode over a failing reader: %v, want %v", err, boom)
	}
	// A file carrying a hostile document names its path in the error.
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"format":"x","version":1} {}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var d doc
	if found, err := ReadFile(path, &d); !found || err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("ReadFile(hostile): found=%v err=%v, want an error naming %s", found, err, path)
	}
}

func TestCheckHeader(t *testing.T) {
	for _, c := range []struct {
		format   string
		version  int
		min, max int
		want     string
	}{
		{"test-doc", 1, 1, 1, ""},
		{"test-doc", 2, 1, 2, ""},
		{"other", 1, 1, 1, `format "other", want "test-doc"`},
		{"test-doc", 2, 1, 1, "version 2 unsupported (decoder knows 1)"},
		{"test-doc", 0, 1, 2, "version 0 unsupported (decoder knows 1..2)"},
		{"test-doc", 3, 1, 2, "version 3 unsupported (decoder knows 1..2)"},
	} {
		got := ""
		if err := CheckHeader(c.format, c.version, "test-doc", c.min, c.max); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("CheckHeader(%q, %d, %d..%d) = %q, want %q", c.format, c.version, c.min, c.max, got, c.want)
		}
	}
}
