// Package docfile is the one codec for every document the repo persists
// or accepts: archives, checkpoints, spider-exp's campaign state, the
// supervisor's campaign records and the supervisor's HTTP campaign spec
// all encode and decode here, so they share one byte form, one
// strictness rule and one crash contract.
//
// The byte form is canonical: struct field order, tab indentation, no
// HTML escaping, exactly one trailing newline. decode(encode(v)) == v
// and encode(decode(b)) is byte-stable.
//
// Decoding is strict: a document is one JSON value and nothing more.
// Unknown fields are errors, so a newer document can never silently
// load as an older one, and anything after the value — well-formed or
// not — is a corruption, not an extension. CheckHeader adds the
// format/version check every versioned document opens with.
//
// WriteFile's crash contract is stronger than "temp file + rename".
// Rename makes the replacement atomic with respect to concurrent
// readers, and fsyncing the temp file makes the *content* durable — but
// the rename itself lives in the parent directory, and until the
// directory's own metadata reaches disk a power loss can forget the
// file entirely (leaving neither the old nor the new version).
// WriteFile therefore does all four steps: write temp, fsync temp,
// rename over path, fsync the parent directory.
package docfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Encode renders v in canonical form: struct field order, tab
// indentation, no HTML escaping, one trailing newline.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "\t")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reads exactly one document from r into v, rejecting unknown
// fields and trailing data. It never panics on arbitrary input.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	var extra json.RawMessage
	switch err := dec.Decode(&extra); {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil, errors.As(err, new(*json.SyntaxError)), errors.Is(err, io.ErrUnexpectedEOF):
		return errors.New("decode: trailing data after document")
	default:
		// The reader itself failed, e.g. a body over its size limit.
		return fmt.Errorf("decode: %w", err)
	}
}

// CheckHeader checks a decoded document's format and version against
// the format a decoder reads and the version window it knows.
func CheckHeader(format string, version int, wantFormat string, minVersion, maxVersion int) error {
	if format != wantFormat {
		return fmt.Errorf("format %q, want %q", format, wantFormat)
	}
	if version < minVersion || version > maxVersion {
		if minVersion == maxVersion {
			return fmt.Errorf("version %d unsupported (decoder knows %d)", version, maxVersion)
		}
		return fmt.Errorf("version %d unsupported (decoder knows %d..%d)", version, minVersion, maxVersion)
	}
	return nil
}

// WriteFile encodes v canonically and writes it to path atomically and
// durably: a sibling temp file is written and fsynced, renamed over
// path, and the parent directory is fsynced so the rename survives a
// crash. On any error the previous file at path is left intact and the
// temp file is removed.
func WriteFile(path string, v any) error {
	b, err := Encode(v)
	if err != nil {
		return err
	}
	return writeAtomic(path, b)
}

// ReadFile decodes the document at path into v, reporting whether the
// file existed. A missing file is not an error; the caller decides what
// absence means.
func ReadFile(path string, v any) (found bool, err error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := Decode(bytes.NewReader(b), v); err != nil {
		return true, fmt.Errorf("%s: %w", path, err)
	}
	return true, nil
}

func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
