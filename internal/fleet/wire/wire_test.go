package wire

import (
	"bytes"
	"encoding/hex"
	"io"
	"reflect"
	"testing"
)

// goldenFrames pins the byte-exact encoding of every message type. A
// failure against it is a wire-format change: bump Version or append,
// never edit.
var goldenFrames = []struct {
	name string
	msg  Msg
	hex  string
}{
	{
		name: "register",
		msg:  &Register{Name: "w1", Capacity: 16, Workers: 2},
		hex: "f1ee" + "01" + "01" + "0000000e" + // header, len 14
			"00000002" + "7731" + // "w1"
			"00000010" + // capacity 16
			"00000002", // workers 2
	},
	{
		name: "ack",
		msg:  &Ack{Gateway: "gw"},
		hex:  "f1ee" + "01" + "02" + "00000006" + "00000002" + "6777",
	},
	{
		name: "heartbeat",
		msg:  &Heartbeat{Depth: 3, InFlight: 2, Capacity: 16},
		hex: "f1ee" + "01" + "03" + "0000000c" +
			"00000003" + "00000002" + "00000010",
	},
	{
		name: "submit",
		msg:  &Submit{Job: "job-7", Hash: 0x0123456789abcdef, Spec: []byte(`{"kind":"sim"}`)},
		hex: "f1ee" + "01" + "04" + "00000023" +
			"00000005" + hex.EncodeToString([]byte("job-7")) +
			"0123456789abcdef" +
			"0000000e" + hex.EncodeToString([]byte(`{"kind":"sim"}`)),
	},
	{
		name: "progress",
		msg: &Progress{Job: "job-7", Seq: 4, Event: "progress",
			Done: 3, Total: 8, Label: "seed[3]", Cached: false},
		hex: "f1ee" + "01" + "05" + "0000002d" +
			"00000005" + hex.EncodeToString([]byte("job-7")) +
			"00000004" +
			"00000008" + hex.EncodeToString([]byte("progress")) +
			"00000003" + "00000008" +
			"00000007" + hex.EncodeToString([]byte("seed[3]")) +
			"00",
	},
	{
		name: "result",
		msg: &Result{Job: "job-7", Status: StatusDone, Cached: true,
			Error: "", Body: []byte("{\"ok\":true}\n")},
		hex: "f1ee" + "01" + "06" + "0000001f" +
			"00000005" + hex.EncodeToString([]byte("job-7")) +
			"01" + "01" +
			"00000000" +
			"0000000c" + hex.EncodeToString([]byte("{\"ok\":true}\n")),
	},
	{
		name: "shed",
		msg:  &Shed{Job: "job-9", RetryAfter: 7, Depth: 16},
		hex: "f1ee" + "01" + "07" + "00000011" +
			"00000005" + hex.EncodeToString([]byte("job-9")) +
			"00000007" + "00000010",
	},
}

func TestGoldenFrames(t *testing.T) {
	for _, tc := range goldenFrames {
		t.Run(tc.name, func(t *testing.T) {
			var w Writer
			if err := Append(&w, tc.msg); err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatalf("bad golden hex: %v", err)
			}
			if !bytes.Equal(w.B, want) {
				t.Errorf("encoding drifted:\n got %x\nwant %x", w.B, want)
			}
			// Round trip through the stream reader.
			got, _, err := ReadMsg(bytes.NewReader(w.B), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(tc.msg)) {
				t.Errorf("round trip: got %+v want %+v", got, tc.msg)
			}
		})
	}
}

// normalize maps nil and empty byte slices together: the decoder always
// materializes a non-nil slice for a present length-0 field.
func normalize(m Msg) Msg {
	switch m := m.(type) {
	case *Submit:
		c := *m
		if len(c.Spec) == 0 {
			c.Spec = nil
		}
		return &c
	case *Result:
		c := *m
		if len(c.Body) == 0 {
			c.Body = nil
		}
		return &c
	}
	return m
}

// TestStreamOfFrames drives several frames through one reader with a
// shared scratch buffer, as a connection does.
func TestStreamOfFrames(t *testing.T) {
	msgs := []Msg{
		&Register{Name: "worker-a", Capacity: 8, Workers: 4},
		&Heartbeat{Depth: 1, InFlight: 4, Capacity: 8},
		&Submit{Job: "job-1", Hash: 42, Spec: []byte("{}")},
		&Progress{Job: "job-1", Seq: 0, Event: "queued"},
		&Result{Job: "job-1", Status: StatusFailed, Error: "boom"},
		&Shed{Job: "job-2", RetryAfter: 3, Depth: 8},
	}
	var w Writer
	for _, m := range msgs {
		if err := Append(&w, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(w.B)
	var scratch []byte
	for i, want := range msgs {
		var got Msg
		var err error
		got, scratch, err = ReadMsg(r, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, _, err := ReadMsg(r, scratch); err != io.EOF {
		t.Errorf("after last frame: got %v want EOF", err)
	}
}

// TestUnknownTypeSkipped checks forward compatibility: a well-framed
// unknown type is skipped and the following frame decodes.
func TestUnknownTypeSkipped(t *testing.T) {
	var w Writer
	w.WriteUint16(Magic)
	w.WriteUint8(Version)
	w.WriteUint8(200) // future message type
	w.WriteUint32(3)
	w.B = append(w.B, 0xde, 0xad, 0x01)
	if err := Append(&w, &Heartbeat{Depth: 5, InFlight: 1, Capacity: 9}); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadMsg(bytes.NewReader(w.B), nil)
	if err != nil {
		t.Fatal(err)
	}
	hb, ok := got.(*Heartbeat)
	if !ok || hb.Depth != 5 || hb.InFlight != 1 || hb.Capacity != 9 {
		t.Errorf("got %+v, want the heartbeat after the unknown frame", got)
	}
}

func TestHeaderRejections(t *testing.T) {
	frame := func(mut func(b []byte)) []byte {
		var w Writer
		if err := Append(&w, &Ack{Gateway: "g"}); err != nil {
			t.Fatal(err)
		}
		b := append([]byte(nil), w.B...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"bad magic", frame(func(b []byte) { b[0] = 'G' }), ErrBadMagic},
		{"bad version", frame(func(b []byte) { b[2] = 99 }), ErrBadVersion},
		{"oversized", frame(func(b []byte) {
			b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff
		}), ErrFrameSize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadMsg(bytes.NewReader(tc.b), nil)
			if err == nil || !errorsIs(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
	t.Run("truncated payload", func(t *testing.T) {
		b := frame(func([]byte) {})
		_, _, err := ReadMsg(bytes.NewReader(b[:len(b)-2]), nil)
		if err == nil {
			t.Error("truncated payload decoded")
		}
	})
}

// errorsIs avoids importing errors just for Is in this file.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestReaderStickyError: after a short read, every later read returns
// zero values and the original error.
func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	if got := r.ReadUint32(); got != 0 {
		t.Errorf("short ReadUint32 = %d, want 0", got)
	}
	if got := r.ReadUint64(); got != 0 {
		t.Errorf("read after error = %d, want 0", got)
	}
	if r.ReadString() != "" {
		t.Error("string after error not empty")
	}
	if r.Err() != ErrShortBuffer {
		t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
	}
}

// TestWriterReuse: Reset keeps capacity; the steady state allocates
// nothing.
func TestWriterReuse(t *testing.T) {
	var w Writer
	if err := Append(&w, &Heartbeat{Depth: 1, InFlight: 2, Capacity: 3}); err != nil {
		t.Fatal(err)
	}
	capBefore := cap(w.B)
	for i := 0; i < 100; i++ {
		w.Reset()
		if err := Append(&w, &Heartbeat{Depth: 1, InFlight: 2, Capacity: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if cap(w.B) != capBefore {
		t.Errorf("writer reallocated: cap %d -> %d", capBefore, cap(w.B))
	}
}

// FuzzReadMsg feeds arbitrary bytes to the decoder a gateway and a
// worker run on every frame from the network. It must never panic, and
// any frame it accepts must re-encode and decode to an equal message.
func FuzzReadMsg(f *testing.F) {
	for _, tc := range goldenFrames {
		b, err := hex.DecodeString(tc.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := ReadMsg(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var w Writer
		if err := WriteMsg(io.Discard, &w, m); err != nil {
			t.Fatalf("accepted %v does not re-encode: %v", m.Type(), err)
		}
		again, _, err := ReadMsg(bytes.NewReader(w.B), nil)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(normalize(again), normalize(m)) {
			t.Fatalf("round trip changed the message: %+v -> %+v", m, again)
		}
	})
}
