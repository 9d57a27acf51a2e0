package docfile

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode is the codec's robustness contract: Decode never panics on
// arbitrary bytes, and whatever it accepts, into a typed document or an
// untyped value, re-encodes to bytes that decode to the same value.
func FuzzDecode(f *testing.F) {
	d := sample()
	enc, err := Encode(&d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(append(bytes.Clone(enc), "{}"...)) // trailing document
	f.Add([]byte(`{"format":"test-doc","version":1,"extra":true}`))
	f.Add([]byte(`{"done":null,"inner":null}`))
	f.Add([]byte(`[1, "two", {"three": 3.5}, null, false]`))
	f.Add([]byte(`"é�"`))
	f.Add([]byte(`{"format":`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var typed doc
		if Decode(bytes.NewReader(data), &typed) == nil {
			var again doc
			roundTrip(t, &typed, &again)
			if !reflect.DeepEqual(typed, again) {
				t.Fatalf("typed round trip changed the document:\n first: %+v\nsecond: %+v", typed, again)
			}
		}
		var untyped any
		if Decode(bytes.NewReader(data), &untyped) == nil {
			var again any
			roundTrip(t, &untyped, &again)
			if !reflect.DeepEqual(untyped, again) {
				t.Fatalf("untyped round trip changed the value:\n first: %#v\nsecond: %#v", untyped, again)
			}
		}
	})
}

// roundTrip encodes v and decodes the bytes into out, failing t if
// either step errors.
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	enc, err := Encode(v)
	if err != nil {
		t.Fatalf("re-encode of an accepted document failed: %v", err)
	}
	if err := Decode(bytes.NewReader(enc), out); err != nil {
		t.Fatalf("re-decode of the canonical encoding failed: %v\n%s", err, enc)
	}
}
