package coi

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// wireShapes are the messages the process sends, one of each shape.
func wireShapes() []msg {
	return []msg{
		{Op: 'r', Fn: "dgemm", Args: []int64{1, -2, math.MaxInt64, math.MinInt64}, BufIDs: []uint64{3, math.MaxUint64}, Event: 1 << 40},
		{Op: 'r', Fn: "noargs", Event: 2},
		{Op: 'c', Event: 9},
		{Op: 'c', Event: 10, Err: "coi: run-function panic: kaboom"},
	}
}

// retiredOps are records of the pipeline-destroy ('d') and quit ('q')
// ops, which the process no longer sends, in their last wire form (op,
// pipeline id, event id, then four zero lengths and counts). decode
// must reject them.
var retiredOps = map[string][]byte{
	"retired destroy op": {'d', 3, 0, 0, 0, 0, 0},
	"retired quit op":    {'q', 0, 0, 0, 0, 0, 0},
}

// randomMsg draws a message of one of the shapes the process sends.
func randomMsg(rng *rand.Rand) msg {
	str := func(maxLen int) string {
		b := make([]byte, rng.Intn(maxLen+1))
		rng.Read(b)
		return string(b)
	}
	if rng.Intn(2) == 0 {
		m := msg{Op: 'r', Fn: str(24), Event: rng.Uint64() >> rng.Intn(64)}
		for i := rng.Intn(12); i > 0; i-- {
			m.Args = append(m.Args, int64(rng.Uint64())>>rng.Intn(64))
		}
		for i := rng.Intn(6); i > 0; i-- {
			m.BufIDs = append(m.BufIDs, rng.Uint64()>>rng.Intn(64))
		}
		return m
	}
	m := msg{Op: 'c', Event: rng.Uint64() >> rng.Intn(64)}
	if rng.Intn(2) == 0 {
		m.Err = str(80)
	}
	return m
}

// sameMsg compares two messages, taking a nil and an empty slice as
// equal: a reused msg keeps its backing arrays.
func sameMsg(a, b msg) bool {
	return a.Op == b.Op && a.Fn == b.Fn && a.Event == b.Event && a.Err == b.Err &&
		slices.Equal(a.Args, b.Args) && slices.Equal(a.BufIDs, b.BufIDs)
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := wireShapes()
	for i := 0; i < 2000; i++ {
		msgs = append(msgs, randomMsg(rng))
	}
	var reused msg
	for i, m := range msgs {
		raw := encode(nil, m)
		var got msg
		if err := decode(raw, &got); err != nil {
			t.Fatalf("msg %d %+v: decode: %v", i, m, err)
		}
		if !sameMsg(got, m) {
			t.Fatalf("msg %d: round trip %+v, want %+v", i, got, m)
		}
		// Decoding into a msg that held the previous record must not
		// leak any of it.
		if err := decode(raw, &reused); err != nil || !sameMsg(reused, m) {
			t.Fatalf("msg %d: reused decode %+v (%v), want %+v", i, reused, err, m)
		}
		// Appending must not depend on what dst already holds.
		if again := encode([]byte("prefix"), m); !bytes.Equal(again[len("prefix"):], raw) {
			t.Fatalf("msg %d: encode into a non-empty dst differs", i)
		}
		for n := 0; n < len(raw); n++ {
			if err := decode(raw[:n], &got); err == nil {
				t.Fatalf("msg %d: %d-byte truncation of %d decoded", i, n, len(raw))
			}
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	valid := encode(nil, wireShapes()[0])
	huge := binary.AppendUvarint(nil, 1<<62)
	cases := map[string][]byte{
		"empty":                    nil,
		"unknown op":               {'x', 0, 0, 0, 0, 0},
		"op only":                  {'r'},
		"truncated varint":         {'r', 0x80},
		"varint overflow":          {'r', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 0, 0},
		"fn longer than input":     {'r', 0, 5, 'a'},
		"err longer than input":    {'c', 0, 0, 2, 'x'},
		"huge fn length":           append([]byte{'r', 0}, huge...),
		"huge args count":          append([]byte{'r', 0, 0, 0}, huge...),
		"huge bufids count":        append([]byte{'r', 0, 0, 0, 0}, huge...),
		"args count past input":    {'r', 0, 0, 0, 3, 2, 4},
		"bufids count past input":  {'r', 0, 0, 0, 0, 2, 1},
		"missing bufids count":     {'r', 0, 0, 0, 0},
		"trailing byte":            append(append([]byte(nil), valid...), 0),
		"trailing completion byte": {'c', 0, 0, 0, 0, 0, 0},
	}
	for name, raw := range retiredOps {
		cases[name] = raw
	}
	for name, raw := range cases {
		var m msg
		if err := decode(raw, &m); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, m)
		}
	}
}

func FuzzDecode(f *testing.F) {
	// Each shape is also seeded in its previous wire form, which
	// carried the pipeline id (7, 1, 0, 0 here) after the op byte.
	prevPipeline := []byte{7, 1, 0, 0}
	for i, m := range wireShapes() {
		raw := encode(nil, m)
		prev := append([]byte{raw[0], prevPipeline[i]}, raw[1:]...)
		for n := 0; n <= len(raw); n++ {
			f.Add(raw[:n])
			f.Add(prev[:n+1])
		}
	}
	for _, raw := range retiredOps {
		for n := 0; n <= len(raw); n++ {
			f.Add(raw[:n])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m msg
		if err := decode(raw, &m); err != nil {
			return
		}
		var again msg
		if err := decode(encode(nil, m), &again); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if !sameMsg(again, m) {
			t.Fatalf("re-encoded %+v decodes to %+v", m, again)
		}
	})
}
