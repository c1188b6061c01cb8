package wire

import (
	"bytes"
	"net"
	"testing"

	"triggerman/internal/datasource"
	"triggerman/internal/event"
	"triggerman/internal/types"
)

func TestValueRoundtrip(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		types.NewInt(-42),
		types.NewFloat(2.5),
		types.NewChar("c"),
		types.NewString("hello"),
	}
	for _, v := range vals {
		w := FromValue(v)
		back, err := w.ToValue()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !types.Equal(back, v) || back.Kind() != v.Kind() {
			t.Errorf("roundtrip %v -> %v", v, back)
		}
	}
	if _, err := (Value{T: "bogus"}).ToValue(); err == nil {
		t.Error("bogus type should fail")
	}
}

func TestTupleRoundtrip(t *testing.T) {
	tu := types.Tuple{types.NewInt(1), types.NewString("x"), types.Null()}
	back, err := ToTuple(FromTuple(tu))
	if err != nil || !back.Equal(tu) {
		t.Errorf("roundtrip: %v %v", back, err)
	}
	if got, _ := ToTuple(nil); got != nil {
		t.Error("empty tuple should be nil")
	}
}

func TestParseTokenOp(t *testing.T) {
	for s, want := range map[string]datasource.Op{
		"insert": datasource.OpInsert, "delete": datasource.OpDelete, "update": datasource.OpUpdate,
	} {
		got, err := ParseTokenOp(s)
		if err != nil || got != want {
			t.Errorf("ParseTokenOp(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseTokenOp("upsert"); err == nil {
		t.Error("unknown op should fail")
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	in := &Request{ID: 7, Op: "command", Text: "select 1"}
	if err := WriteMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadMsg(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Op != "command" || out.Text != "select 1" {
		t.Errorf("roundtrip = %+v", out)
	}
	// Truncated frame.
	buf.Reset()
	WriteMsg(&buf, in)
	short := buf.Bytes()[:buf.Len()-2]
	if err := ReadMsg(bytes.NewReader(short), &out); err == nil {
		t.Error("truncated frame should fail")
	}
	// Oversized frame header.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if err := ReadMsg(bytes.NewReader(huge), &out); err == nil {
		t.Error("oversized frame should fail")
	}
}

// fakeBackend implements Backend for server unit tests.
type fakeBackend struct {
	bus *event.Bus
}

func (f *fakeBackend) Command(text string) (string, error) { return "ran: " + text, nil }
func (f *fakeBackend) Subscribe(name string, buffer int) (*event.Subscription, error) {
	return f.bus.Subscribe(name, buffer)
}
func (f *fakeBackend) PushToken(source string, op datasource.Op, old, new []Value, trace string) error {
	f.bus.Raise("pushed", types.Tuple{types.NewString(source)}, 0)
	return nil
}
func (f *fakeBackend) StatsText() string { return "stats" }

func TestServerDispatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be := &fakeBackend{bus: event.NewBus()}
	srv := Serve(ln, be)
	defer srv.Close()
	defer be.bus.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Each frame decodes into a fresh Response: decoding into a reused one
	// would leave the omitempty Event of an earlier frame set, and the
	// reply would pass for another event. Events that arrive before a
	// reply are kept for the check below.
	var events []*EventMsg
	read := func() *Response {
		t.Helper()
		var resp Response
		if err := ReadMsg(conn, &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}
	roundtrip := func(req *Request) *Response {
		t.Helper()
		if err := WriteMsg(conn, req); err != nil {
			t.Fatal(err)
		}
		for {
			resp := read()
			if resp.Event == nil {
				return resp
			}
			events = append(events, resp.Event)
		}
	}

	if r := roundtrip(&Request{ID: 1, Op: "ping"}); !r.OK || r.Output != "pong" {
		t.Errorf("ping = %+v", r)
	}
	if r := roundtrip(&Request{ID: 2, Op: "stats"}); !r.OK || r.Output != "stats" {
		t.Errorf("stats = %+v", r)
	}
	if r := roundtrip(&Request{ID: 3, Op: "command", Text: "x"}); !r.OK || r.Output != "ran: x" {
		t.Errorf("command = %+v", r)
	}
	if r := roundtrip(&Request{ID: 4, Op: "subscribe", Event: "pushed"}); !r.OK {
		t.Errorf("subscribe = %+v", r)
	}
	if r := roundtrip(&Request{ID: 5, Op: "subscribe", Event: "pushed"}); r.OK {
		t.Error("duplicate subscribe should fail")
	}
	if r := roundtrip(&Request{ID: 6, Op: "push", Source: "s", TokenOp: "insert"}); !r.OK {
		t.Errorf("push = %+v", r)
	}
	// The push raised an event; it arrives as an unsolicited message,
	// before the push's reply or after it.
	for len(events) == 0 {
		if resp := read(); resp.Event != nil {
			events = append(events, resp.Event)
		}
	}
	if events[0].Name != "pushed" {
		t.Errorf("event = %+v", events[0])
	}
	if r := roundtrip(&Request{ID: 7, Op: "unsubscribe", Event: "pushed"}); !r.OK {
		t.Errorf("unsubscribe = %+v", r)
	}
	if r := roundtrip(&Request{ID: 8, Op: "bogus"}); r.OK {
		t.Error("bogus op should fail")
	}
	if r := roundtrip(&Request{ID: 9, Op: "push", TokenOp: "upsert"}); r.OK {
		t.Error("bad token op should fail")
	}
	// ddl/forward against a non-clustered backend fail cleanly.
	if r := roundtrip(&Request{ID: 10, Op: ReqDDL, Text: "create trigger t ..."}); r.OK {
		t.Error("ddl without DDLBackend should fail")
	}
	if r := roundtrip(&Request{ID: 11, Op: ReqForward, Source: "s", TokenOp: "insert"}); r.OK {
		t.Error("forward without ForwardBackend should fail")
	}
}

func TestHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be := &fakeBackend{bus: event.NewBus()}
	srv := ServeWith(ln, be, Config{NodeID: "n1"})
	defer srv.Close()
	defer be.bus.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &Request{ID: 1, Op: ReqHello, Version: ProtocolVersion, Node: "peer"}
	if err := WriteMsg(conn, hello); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadMsg(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Version != ProtocolVersion || resp.Node != "n1" {
		t.Fatalf("hello = %+v", resp)
	}
	// The session stays usable after a good hello.
	if err := WriteMsg(conn, &Request{ID: 2, Op: ReqPing}); err != nil {
		t.Fatal(err)
	}
	if err := ReadMsg(conn, &resp); err != nil || !resp.OK || resp.Output != "pong" {
		t.Fatalf("ping after hello = %+v, %v", resp, err)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be := &fakeBackend{bus: event.NewBus()}
	srv := ServeWith(ln, be, Config{NodeID: "n1"})
	defer srv.Close()
	defer be.bus.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteMsg(conn, &Request{ID: 1, Op: ReqHello, Version: ProtocolVersion + 99, Node: "bad"}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadMsg(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatalf("mismatched hello accepted: %+v", resp)
	}
	if resp.Version != ProtocolVersion || resp.Node != "n1" {
		t.Errorf("refusal should carry server identity, got %+v", resp)
	}
	verr := &VersionError{Local: ProtocolVersion, Remote: ProtocolVersion + 99}
	if resp.Error != verr.Error() {
		t.Errorf("error = %q, want %q", resp.Error, verr.Error())
	}
	// The server must have hung up: the next read fails.
	if err := WriteMsg(conn, &Request{ID: 2, Op: ReqPing}); err == nil {
		var r2 Response
		if err := ReadMsg(conn, &r2); err == nil {
			t.Error("session survived a refused handshake")
		}
	}
}
