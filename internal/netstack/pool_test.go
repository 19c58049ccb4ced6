package netstack

import (
	"bytes"
	"math/rand"
	"testing"

	"livelock/internal/prov"
)

// eagerPool is the reference the lazy Pool must be indistinguishable
// from: every buffer created up front and pushed on one LIFO free
// stack, fresh buffers below released ones.
type eagerPool struct {
	free            []*Packet
	bufSize, total  int
	fails, oversize uint64
}

func newEagerPool(n, bufSize int) *eagerPool {
	e := &eagerPool{bufSize: bufSize, total: n}
	for i := 0; i < n; i++ {
		e.free = append(e.free, &Packet{Data: make([]byte, 0, bufSize)})
	}
	return e
}

func (e *eagerPool) get(n int) *Packet {
	if n > e.bufSize {
		e.oversize++
		return nil
	}
	if len(e.free) == 0 {
		e.fails++
		return nil
	}
	pkt := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	pkt.Data = pkt.Data[:n]
	return pkt
}

func (e *eagerPool) put(pkt *Packet) {
	pkt.Data = pkt.Data[:0]
	pkt.ID = 0
	pkt.Prov = prov.Handle{}
	e.free = append(e.free, pkt)
}

// TestLazyPoolMatchesEager drives the lazy pool and the eager reference
// with the same random Get/Release sequence. At every step both must
// hand out the same buffer — fresh in both, or the reuse of buffers
// paired earlier — with the same contents, and agree on Fails,
// Oversize and Available.
func TestLazyPoolMatchesEager(t *testing.T) {
	const bufSize = 96
	for _, n := range []int{1, 2, slabSize, slabSize + 1, 3*slabSize - 5} {
		for seed := int64(1); seed <= 4; seed++ {
			lazy, ref := NewPool(n, bufSize), newEagerPool(n, bufSize)
			rng := rand.New(rand.NewSource(seed + int64(n)*100))
			pair := map[*Packet]*Packet{} // lazy buffer -> eager buffer
			type held struct{ lazy, ref *Packet }
			var out []held
			for step := 0; step < 30*n+200; step++ {
				// Bias towards Get so the pool exhausts repeatedly,
				// with random releases draining it in between.
				if len(out) == 0 || rng.Intn(100) < 60 {
					size := rng.Intn(bufSize + 8)
					l, r := lazy.Get(size), ref.get(size)
					if (l == nil) != (r == nil) {
						t.Fatalf("n=%d seed=%d step %d: lazy Get=%v, eager Get=%v", n, seed, step, l, r)
					}
					if l != nil {
						if p, seen := pair[l]; seen && p != r {
							t.Fatalf("n=%d seed=%d step %d: lazy reused a different buffer than eager", n, seed, step)
						} else if !seen {
							for _, e := range pair {
								if e == r {
									t.Fatalf("n=%d seed=%d step %d: lazy handed out a fresh buffer where eager reused one", n, seed, step)
								}
							}
							pair[l] = r
						}
						if !bytes.Equal(l.Data, r.Data) || l.ID != r.ID || l.Prov != r.Prov {
							t.Fatalf("n=%d seed=%d step %d: contents differ", n, seed, step)
						}
						// Scribble so a later reuse carries detectable bytes.
						for i := range l.Data {
							b := byte(rng.Intn(256))
							l.Data[i], r.Data[i] = b, b
						}
						id := rng.Uint64()
						l.ID, r.ID = id, id
						out = append(out, held{l, r})
					}
				} else {
					i := rng.Intn(len(out))
					h := out[i]
					out = append(out[:i], out[i+1:]...)
					h.lazy.Release()
					ref.put(h.ref)
				}
				if lazy.Fails != ref.fails || lazy.Oversize != ref.oversize {
					t.Fatalf("n=%d seed=%d step %d: Fails/Oversize %d/%d, eager %d/%d",
						n, seed, step, lazy.Fails, lazy.Oversize, ref.fails, ref.oversize)
				}
				if lazy.Available() != len(ref.free) {
					t.Fatalf("n=%d seed=%d step %d: Available = %d, eager %d",
						n, seed, step, lazy.Available(), len(ref.free))
				}
			}
			if lazy.Fails == 0 {
				t.Fatalf("n=%d seed=%d: sequence never exhausted the pool", n, seed)
			}
		}
	}
}

// TestPoolFailsAtExactlyTotal checks exhaustion when every buffer is out
// and that a never-used buffer arrives zeroed even past a slab boundary.
func TestPoolFailsAtExactlyTotal(t *testing.T) {
	const n = slabSize + 3
	p := NewPool(n, 32)
	for i := 0; i < n; i++ {
		pkt := p.Get(32)
		if pkt == nil {
			t.Fatalf("Get %d of %d failed", i+1, n)
		}
		if !bytes.Equal(pkt.Data, make([]byte, 32)) || pkt.ID != 0 || pkt.Born != 0 {
			t.Fatalf("fresh buffer %d not zeroed", i)
		}
		if cap(pkt.Data) != 32 {
			t.Fatalf("buffer %d has capacity %d, want 32", i, cap(pkt.Data))
		}
		pkt.Data[31] = 0xff // must not bleed into the next buffer
	}
	if p.Get(1) != nil || p.Fails != 1 || p.Available() != 0 {
		t.Fatalf("after %d outstanding: Fails=%d Available=%d", n, p.Fails, p.Available())
	}
}

// TestPoolDoubleReleasePanics pins the double-release guard: a buffer
// released twice while others are outstanding would otherwise sit on
// the free list twice and be handed to two packets at once.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool(4, 64)
	a := p.Get(10)
	p.Get(10) // stays outstanding: the free list is not full
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of the same buffer did not panic")
		}
	}()
	a.Release()
}
