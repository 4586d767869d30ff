package fabric

import (
	"math/rand"
	"sync"
	"testing"
)

func TestAddrSpaceBumpAndAlign(t *testing.T) {
	as := NewAddrSpace(64)
	a := as.Alloc(1)
	b := as.Alloc(65)
	c := as.Alloc(64)
	if a != 0 || b != 64 || c != 192 {
		t.Fatalf("bases = %d, %d, %d; want 0, 64, 192", a, b, c)
	}
	hw, fb, rec, frees := as.Stats()
	if hw != 256 || fb != 0 || rec != 0 || frees != 0 {
		t.Fatalf("stats = %d/%d/%d/%d; want 256/0/0/0", hw, fb, rec, frees)
	}
}

func TestAddrSpaceRecycle(t *testing.T) {
	as := NewAddrSpace(64)
	a := as.Alloc(100) // [0, 128)
	_ = as.Alloc(100)  // [128, 256) keeps the mark up
	as.Free(a, 100)
	// First fit re-serves the freed range before bumping.
	if got := as.Alloc(64); got != a {
		t.Fatalf("Alloc after Free = %d, want recycled base %d", got, a)
	}
	// The 64-byte remainder of the 128-byte hole is still recyclable.
	if got := as.Alloc(64); got != a+64 {
		t.Fatalf("Alloc of remainder = %d, want %d", got, a+64)
	}
	hw, fb, rec, _ := as.Stats()
	if hw != 256 || fb != 0 || rec != 2 {
		t.Fatalf("stats = hw %d free %d recycled %d; want 256/0/2", hw, fb, rec)
	}
}

func TestAddrSpaceCoalesce(t *testing.T) {
	as := NewAddrSpace(1)
	a := as.Alloc(10) // [0,10)
	b := as.Alloc(10) // [10,20)
	c := as.Alloc(10) // [20,30)
	_ = as.Alloc(10)  // [30,40) pins the high-water mark
	// Free out of order: the three holes must merge into [0,30).
	as.Free(a, 10)
	as.Free(c, 10)
	as.Free(b, 10)
	if got := as.Alloc(30); got != 0 {
		t.Fatalf("Alloc(30) = %d, want coalesced base 0", got)
	}
}

func TestAddrSpaceHighWaterLowering(t *testing.T) {
	as := NewAddrSpace(1)
	a := as.Alloc(10)
	b := as.Alloc(10)
	// Freeing the top block (and then the one beneath it, which
	// becomes the new top) must drain the space back to pristine.
	as.Free(b, 10)
	as.Free(a, 10)
	hw, fb, _, frees := as.Stats()
	if hw != 0 || fb != 0 || frees != 2 {
		t.Fatalf("stats after full drain = hw %d free %d frees %d; want 0/0/2", hw, fb, frees)
	}
	if got := as.Alloc(10); got != 0 {
		t.Fatalf("Alloc after drain = %d, want 0", got)
	}
}

// TestAddrSpaceNoOverlap hammers the allocator with random alloc/free
// traffic and asserts no two live ranges ever overlap.
func TestAddrSpaceNoOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	as := NewAddrSpace(64)
	type live struct{ base, size uint64 }
	var held []live
	for i := 0; i < 5000; i++ {
		if len(held) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(held))
			as.Free(held[j].base, held[j].size)
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
			continue
		}
		size := uint64(1 + rng.Intn(4096))
		base := as.Alloc(size)
		for _, h := range held {
			end, hEnd := base+size, h.base+h.size
			if base < hEnd && h.base < end {
				t.Fatalf("range [%d,%d) overlaps live [%d,%d)", base, end, h.base, hEnd)
			}
		}
		held = append(held, live{base, size})
	}
	for _, h := range held {
		as.Free(h.base, h.size)
	}
	if hw, fb, _, _ := as.Stats(); hw != 0 || fb != 0 {
		t.Fatalf("after full drain: hw %d free %d; want 0/0", hw, fb)
	}
}

// FuzzAddrSpace drives an AddrSpace with an op sequence read from the
// input. The first byte picks the alignment (1 to 4096); after it each
// byte pair is one op: an odd first byte frees the live range the
// second picks, an even one allocates 1 + second × (first/2 + 1)
// bytes. After every op the live extents must be aligned and pairwise
// disjoint and freeBytes must equal the free list's sum; freeing what
// is left must return the space to high-water 0 with nothing free.
func FuzzAddrSpace(f *testing.F) {
	f.Add([]byte{6})
	f.Add([]byte{6, 0, 10, 0, 200, 1, 0, 0, 3, 1, 1})
	f.Add([]byte{0, 2, 9, 2, 9, 2, 9, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{12, 254, 255, 0, 1, 0, 1, 1, 2, 0, 0, 1, 0})
	f.Add([]byte{3, 0, 7, 0, 7, 0, 7, 0, 7, 1, 1, 1, 2, 0, 14, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		as := NewAddrSpace(1 << (ops[0] % 13))
		type extent struct{ base, n uint64 }
		var live []extent
		for i := 1; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			if op%2 == 1 {
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				as.Free(live[j].base, live[j].n)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				n := 1 + uint64(arg)*uint64(op/2+1)
				base := as.Alloc(n)
				if base%as.align != 0 {
					t.Fatalf("op %d: base %d not aligned to %d", i, base, as.align)
				}
				end := base + as.roundUp(n)
				for _, l := range live {
					if base < l.base+as.roundUp(l.n) && l.base < end {
						t.Fatalf("op %d: [%d,%d) overlaps live [%d,+%d)", i, base, end, l.base, l.n)
					}
				}
				live = append(live, extent{base, n})
			}
			var sum uint64
			for _, r := range as.free {
				sum += r.size
			}
			if sum != as.freeBytes {
				t.Fatalf("op %d: freeBytes %d, free list holds %d", i, as.freeBytes, sum)
			}
		}
		for _, l := range live {
			as.Free(l.base, l.n)
		}
		if hw, fb, _, _ := as.Stats(); hw != 0 || fb != 0 {
			t.Fatalf("after freeing everything: high-water %d, free %d; want 0, 0", hw, fb)
		}
	})
}

func TestAddrSpaceConcurrent(t *testing.T) {
	as := NewAddrSpace(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				base := as.Alloc(256)
				as.Free(base, 256)
			}
		}()
	}
	wg.Wait()
	if _, fb, _, frees := as.Stats(); frees != 4000 {
		t.Fatalf("frees = %d (freeBytes %d), want 4000", frees, fb)
	}
}
