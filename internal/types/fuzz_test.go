package types

import (
	"bytes"
	"testing"
)

// FuzzDecodeTuple feeds arbitrary bytes to the tuple decoder every heap
// record, queue record and dead-letter payload goes through: whole, as
// DecodeTuple reads it, and headerless, as DecodeValues fills a
// caller's tuple of cols columns. Garbage must come back as an error,
// never a panic or an allocation sized by a count the bytes cannot
// hold; and what decodes is exactly the bytes it consumed: re-encoding
// it gives them back. The seeds (testdata/fuzz) are a truncated header,
// a header claiming more columns than follow, and one value of each
// kind.
func FuzzDecodeTuple(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte, cols uint8) {
		if tu, n, err := DecodeTuple(buf); err == nil {
			if enc := EncodeTuple(nil, tu); !bytes.Equal(enc, buf[:n]) || EncodedSize(tu) != n {
				t.Fatalf("%v decoded from % x re-encodes as % x (size %d)", tu, buf[:n], enc, EncodedSize(tu))
			}
		}
		dst := make(Tuple, cols)
		if n, err := DecodeValues(dst, buf); err == nil {
			if enc := AppendValues(nil, dst); !bytes.Equal(enc, buf[:n]) {
				t.Fatalf("%v decoded from % x re-encodes as % x", dst, buf[:n], enc)
			}
		}
	})
}
