package datasource

import (
	"bytes"
	"testing"

	"triggerman/internal/types"
)

// FuzzDecodeToken feeds arbitrary bytes to DecodeToken, the parser of
// every record the persistent queue and the dead-letter table hand back.
// Garbage must come back as an error, never a panic; and a record that
// decodes must survive re-encoding: decode → encode → decode gives the
// same token and the same bytes. The seeds (testdata/fuzz) are encoded
// tokens of every operation and value kind, and truncations of them.
func FuzzDecodeToken(f *testing.F) {
	f.Add(Token{SourceID: 3, Op: OpUpdate, Seq: 9,
		Old: types.Tuple{types.NewString("a"), types.NewInt(-1)},
		New: types.Tuple{types.NewString("b"), types.NewFloat(2.5)}}.Encode())
	f.Fuzz(func(t *testing.T, rec []byte) {
		tok, err := DecodeToken(rec)
		if err != nil {
			return
		}
		enc := tok.Encode()
		again, err := DecodeToken(enc)
		if err != nil {
			t.Fatalf("%s re-encoded does not decode: %v", tok, err)
		}
		if again.SourceID != tok.SourceID || again.Op != tok.Op || again.Seq != tok.Seq ||
			again.String() != tok.String() || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("round trip changed the token: %s, then %s", tok, again)
		}
	})
}
