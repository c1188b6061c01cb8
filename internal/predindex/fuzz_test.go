package predindex

import "testing"

// FuzzDecodeEventMask feeds DecodeEventMask arbitrary text, as a
// corrupted constant-table row would: it must return an error or a mask
// whose encoding decodes back to the same encoding, and never panic.
// The seeds (testdata/fuzz) are TestEventMaskCodec's good and bad
// inputs.
func FuzzDecodeEventMask(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		m, err := DecodeEventMask(s)
		if err != nil {
			return
		}
		enc := m.Encode()
		back, err := DecodeEventMask(enc)
		if err != nil {
			t.Fatalf("%q decoded to %+v, whose encoding %q does not decode: %v", s, m, enc, err)
		}
		if again := back.Encode(); again != enc {
			t.Fatalf("%q decoded to %+v, encoded %q, re-encoded %q", s, m, enc, again)
		}
	})
}
