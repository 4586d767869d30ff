package coi

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// wireShapes are the messages the process sends, one of each shape.
func wireShapes() []msg {
	return []msg{
		{Op: 'r', Fn: "dgemm", Args: []int64{1, -2, math.MaxInt64, math.MinInt64}, BufIDs: []uint64{3, math.MaxUint64}, Pipeline: 7, Event: 1 << 40},
		{Op: 'r', Fn: "noargs", Pipeline: 1, Event: 2},
		{Op: 'c', Event: 9},
		{Op: 'c', Event: 10, Err: "coi: run-function panic: kaboom"},
		{Op: 'd', Pipeline: 3},
		{Op: 'q'},
	}
}

// randomMsg draws a message of one of the shapes the process sends,
// with empty slices as nil (what decode returns).
func randomMsg(rng *rand.Rand) msg {
	str := func(maxLen int) string {
		b := make([]byte, rng.Intn(maxLen+1))
		rng.Read(b)
		return string(b)
	}
	switch rng.Intn(3) {
	case 0:
		m := msg{Op: 'r', Fn: str(24), Pipeline: rng.Uint64() >> rng.Intn(64), Event: rng.Uint64() >> rng.Intn(64)}
		for i := rng.Intn(12); i > 0; i-- {
			m.Args = append(m.Args, int64(rng.Uint64())>>rng.Intn(64))
		}
		for i := rng.Intn(6); i > 0; i-- {
			m.BufIDs = append(m.BufIDs, rng.Uint64()>>rng.Intn(64))
		}
		return m
	case 1:
		m := msg{Op: 'c', Event: rng.Uint64() >> rng.Intn(64)}
		if rng.Intn(2) == 0 {
			m.Err = str(80)
		}
		return m
	default:
		return msg{Op: 'q'}
	}
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := wireShapes()
	for i := 0; i < 2000; i++ {
		msgs = append(msgs, randomMsg(rng))
	}
	for i, m := range msgs {
		raw := encode(nil, m)
		got, err := decode(raw)
		if err != nil {
			t.Fatalf("msg %d %+v: decode: %v", i, m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("msg %d: round trip %+v, want %+v", i, got, m)
		}
		// Appending must not depend on what dst already holds.
		if again := encode([]byte("prefix"), m); !bytes.Equal(again[len("prefix"):], raw) {
			t.Fatalf("msg %d: encode into a non-empty dst differs", i)
		}
		for n := 0; n < len(raw); n++ {
			if _, err := decode(raw[:n]); err == nil {
				t.Fatalf("msg %d: %d-byte truncation of %d decoded", i, n, len(raw))
			}
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	valid := encode(nil, wireShapes()[0])
	huge := binary.AppendUvarint(nil, 1<<62)
	cases := map[string][]byte{
		"empty":                   nil,
		"unknown op":              {'x', 0, 0, 0, 0, 0, 0},
		"op only":                 {'r'},
		"truncated varint":        {'r', 0x80},
		"varint overflow":         {'r', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 0, 0, 0},
		"fn longer than input":    {'r', 0, 0, 5, 'a'},
		"err longer than input":   {'c', 0, 0, 0, 2, 'x'},
		"huge fn length":          append([]byte{'r', 0, 0}, huge...),
		"huge args count":         append([]byte{'r', 0, 0, 0, 0}, huge...),
		"huge bufids count":       append([]byte{'r', 0, 0, 0, 0, 0}, huge...),
		"args count past input":   {'r', 0, 0, 0, 0, 3, 2, 4},
		"bufids count past input": {'r', 0, 0, 0, 0, 0, 2, 1},
		"missing bufids count":    {'r', 0, 0, 0, 0, 0},
		"trailing byte":           append(append([]byte(nil), valid...), 0),
		"trailing quit byte":      {'q', 0, 0, 0, 0, 0, 0, 0},
	}
	for name, raw := range cases {
		if m, err := decode(raw); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, m)
		}
	}
}

func FuzzDecode(f *testing.F) {
	for _, m := range wireShapes() {
		raw := encode(nil, m)
		for n := 0; n <= len(raw); n++ {
			f.Add(raw[:n])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decode(raw)
		if err != nil {
			return
		}
		again, err := decode(encode(nil, m))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded %+v decodes to %+v", m, again)
		}
	})
}
