package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary tuple encoding used by the storage engine. Layout:
//
//	uint16 column count
//	per column: 1 byte kind tag, then payload:
//	  null     -> nothing
//	  int      -> 8-byte little-endian two's complement
//	  float    -> 8-byte little-endian IEEE-754 bits
//	  char/varchar -> uint32 length + raw bytes
//
// The encoding is self-describing so heap records can be decoded without
// consulting the schema (important for the update-descriptor queue table,
// whose payload schema varies by data source).

// EncodeTuple appends the binary encoding of t to dst and returns the
// extended slice.
func EncodeTuple(dst []byte, t Tuple) []byte {
	return AppendValues(AppendCount(dst, len(t)), t)
}

// AppendCount appends a tuple header announcing n columns. A record that
// is one tuple laid out from several pieces (the queue's token record)
// writes the header once and AppendValues per piece.
func AppendCount(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint16(dst, uint16(n))
}

// AppendValues appends the encoding of vs' columns, without a header.
func AppendValues(dst []byte, vs Tuple) []byte {
	for _, v := range vs {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindChar, KindVarchar:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	return dst
}

// DecodeTuple parses a tuple from the front of buf, returning the tuple
// and the number of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	n, err := DecodeCount(buf)
	if err != nil {
		return nil, 0, err
	}
	t := make(Tuple, n)
	used, err := DecodeValues(t, buf[2:])
	if err != nil {
		return nil, 0, err
	}
	return t, 2 + used, nil
}

// DecodeCount reads the tuple header at the front of buf.
func DecodeCount(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("types: tuple header truncated (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint16(buf[:2]))
	// Every column takes at least its kind byte, so a count the buffer
	// cannot hold is garbage — refuse it before it sizes an allocation.
	if n > len(buf)-2 {
		return 0, fmt.Errorf("types: tuple header claims %d columns in %d bytes", n, len(buf)-2)
	}
	return n, nil
}

// DecodeValues fills dst with the len(dst) columns encoded at the front
// of buf (after any header) and returns the number of bytes consumed.
func DecodeValues(dst Tuple, buf []byte) (int, error) {
	pos := 0
	for c := range dst {
		if pos >= len(buf) {
			return 0, fmt.Errorf("types: tuple truncated at column %d", c)
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
			dst[c] = Null()
		case KindInt:
			if pos+8 > len(buf) {
				return 0, fmt.Errorf("types: int payload truncated at column %d", c)
			}
			dst[c] = NewInt(int64(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case KindFloat:
			if pos+8 > len(buf) {
				return 0, fmt.Errorf("types: float payload truncated at column %d", c)
			}
			dst[c] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case KindChar, KindVarchar:
			if pos+4 > len(buf) {
				return 0, fmt.Errorf("types: string header truncated at column %d", c)
			}
			l := int(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
			if pos+l > len(buf) {
				return 0, fmt.Errorf("types: string payload truncated at column %d", c)
			}
			s := string(buf[pos : pos+l])
			pos += l
			if kind == KindChar {
				dst[c] = NewChar(s)
			} else {
				dst[c] = NewString(s)
			}
		default:
			return 0, fmt.Errorf("types: unknown kind tag %d at column %d", kind, c)
		}
	}
	return pos, nil
}

// EncodedSize returns the number of bytes EncodeTuple will emit for t.
func EncodedSize(t Tuple) int {
	n := 2
	for _, v := range t {
		n++
		switch v.kind {
		case KindInt, KindFloat:
			n += 8
		case KindChar, KindVarchar:
			n += 4 + len(v.s)
		}
	}
	return n
}

// EncodeKey encodes a tuple as an order-preserving byte key: comparing
// two encoded keys with bytes.Compare yields the same order as
// comparing the tuples column-by-column with Compare. Used for B+tree
// composite keys over constant tables (§5.1: clustered index on
// [const1..constK]).
func EncodeKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		switch v.kind {
		case KindNull:
			dst = append(dst, 0x00)
		case KindInt, KindFloat:
			f, _ := v.AsFloat()
			bits := math.Float64bits(f)
			// Flip so that the byte order matches numeric order:
			// negative floats reverse, positives get the sign bit set.
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], bits)
			dst = append(dst, 0x01)
			dst = append(dst, b[:]...)
		case KindChar, KindVarchar:
			dst = append(dst, 0x02)
			// Escape 0x00 as 0x00 0xFF so the 0x00 0x00 terminator
			// cannot appear inside the payload, keeping order.
			for i := 0; i < len(v.s); i++ {
				c := v.s[i]
				if c == 0x00 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, c)
				}
			}
			dst = append(dst, 0x00, 0x00)
		}
	}
	return dst
}
