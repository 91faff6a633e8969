package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// refSpace is a minimal reference model of AddressSpace: a map from page
// number to page, with the same allocation, permission and key rules
// spelled out as plainly as possible. TestSpaceMatchesReferenceModel
// drives both with the same random operations.
type refSpace struct {
	id    SpaceID
	pages map[uint64]*refPage
	brk   Addr
	limit Addr
	freed []Region
	stats Stats
	pkru  [MaxKey + 1]keyAccess
}

type refPage struct {
	data [PageSize]byte
	perm Perm
	key  Key
}

func newRefSpace(id SpaceID, limit Addr) *refSpace {
	return &refSpace{id: id, pages: map[uint64]*refPage{}, brk: baseAddr, limit: limit}
}

func (m *refSpace) alloc(size int) (Region, error) {
	if size <= 0 {
		return Region{}, ErrBadRange
	}
	span := Addr(roundUp(size))
	base, found := Addr(0), false
	for i, f := range m.freed {
		if Addr(f.Size) < span {
			continue
		}
		base, found = f.Base, true
		if Addr(f.Size) == span {
			m.freed = append(m.freed[:i], m.freed[i+1:]...)
		} else {
			m.freed[i] = Region{Base: f.Base + span, Size: f.Size - int(span)}
		}
		break
	}
	if !found {
		if m.brk+span > m.limit {
			return Region{}, ErrOutOfMemory
		}
		base = m.brk
		m.brk += span
	}
	for a := base; a < base+span; a += PageSize {
		m.pages[a.PageIndex()] = &refPage{perm: PermRW}
	}
	return Region{Base: base, Size: size}, nil
}

func (m *refSpace) free(r Region) error {
	span := Addr(roundUp(r.Size))
	if r.Size <= 0 || r.Base+span > m.brk {
		return ErrBadRange
	}
	for a := r.Base; a < r.Base+span; a += PageSize {
		delete(m.pages, a.PageIndex())
	}
	m.freed = append(m.freed, Region{Base: r.Base, Size: int(span)})
	return nil
}

// pagesOf lists the page numbers [addr, addr+n) touches, in order.
func pagesOf(addr Addr, n int) []uint64 {
	var out []uint64
	for pi := addr.PageIndex(); pi <= (addr + Addr(n) - 1).PageIndex(); pi++ {
		out = append(out, pi)
	}
	return out
}

func (m *refSpace) protect(addr Addr, size int, perm Perm) (int, error) {
	if size <= 0 {
		return 0, ErrBadRange
	}
	n := 0
	for _, pi := range pagesOf(addr, size) {
		pg, ok := m.pages[pi]
		if !ok {
			return n, ErrBadRange
		}
		pg.perm = perm
		n++
	}
	m.stats.Protects++
	return n, nil
}

func (m *refSpace) setKey(r Region, k Key) error {
	if k > MaxKey || r.Size <= 0 {
		return ErrBadRange
	}
	for _, pi := range pagesOf(r.Base, r.Size) {
		pg, ok := m.pages[pi]
		if !ok {
			return ErrBadRange
		}
		pg.key = k
	}
	return nil
}

func (m *refSpace) setKeyAccess(k Key, read, write bool) error {
	if k == 0 || k > MaxKey {
		return ErrBadRange
	}
	m.pkru[k] = keyAccess{denyRead: !read, denyWrite: !write}
	return nil
}

// access checks every page of the range for the access kind.
func (m *refSpace) access(addr Addr, n int, kind AccessKind) error {
	if n <= 0 {
		return ErrBadRange
	}
	for _, pi := range pagesOf(addr, n) {
		pg, ok := m.pages[pi]
		if !ok {
			m.stats.Faults++
			return &Fault{Space: m.id, Addr: Addr(pi * PageSize), Kind: kind}
		}
		var allowed bool
		switch kind {
		case AccessRead:
			allowed = pg.perm.CanRead() && !m.pkru[pg.key].denyRead
		case AccessWrite:
			allowed = pg.perm.CanWrite() && !m.pkru[pg.key].denyWrite
		case AccessExec:
			allowed = pg.perm.CanExec() && !m.pkru[pg.key].denyRead
		}
		if !allowed {
			m.stats.Faults++
			return &Fault{Space: m.id, Addr: Addr(pi * PageSize), Kind: kind, Perm: pg.perm, Mapped: true}
		}
	}
	return nil
}

func (m *refSpace) read(addr Addr, n int, kind AccessKind) ([]byte, error) {
	if err := m.access(addr, n, kind); err != nil {
		return nil, err
	}
	m.stats.Loads++
	m.stats.BytesLoaded += uint64(n)
	out := make([]byte, n)
	for i := range out {
		a := addr + Addr(i)
		out[i] = m.pages[a.PageIndex()].data[a%PageSize]
	}
	return out, nil
}

func (m *refSpace) store(addr Addr, buf []byte) error {
	if err := m.access(addr, len(buf), AccessWrite); err != nil {
		return err
	}
	m.stats.Stores++
	m.stats.BytesStored += uint64(len(buf))
	for i, b := range buf {
		a := addr + Addr(i)
		m.pages[a.PageIndex()].data[a%PageSize] = b
	}
	return nil
}

func (m *refSpace) statsNow() Stats {
	st := m.stats
	st.PagesMapped = uint64(len(m.pages))
	return st
}

// sameError reports whether two errors agree: both nil, both faults with
// equal fields, or both wrapping the same sentinel.
func sameError(got, want error) error {
	gf, gok := IsFault(got)
	wf, wok := IsFault(want)
	switch {
	case got == nil && want == nil:
		return nil
	case gok && wok:
		if *gf != *wf {
			return fmt.Errorf("fault %+v, reference %+v", *gf, *wf)
		}
		return nil
	case !gok && !wok && got != nil && want != nil && errors.Is(got, want):
		return nil
	}
	return fmt.Errorf("error %v, reference %v", got, want)
}

func TestSpaceMatchesReferenceModel(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		limit Addr
		ops   int
	}{
		{"roomy", 1, 64 * PageSize, 4000},
		{"tight", 2, 12 * PageSize, 4000},
		{"default-limit", 3, DefaultLimit, 4000},
		{"reuse-heavy", 4, 24 * PageSize, 4000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			s := NewSpace()
			s.SetLimit(c.limit)
			m := newRefSpace(s.ID(), c.limit)
			var live, dead []Region

			// addr picks an address of one of the interesting kinds: inside
			// a live or freed region, its last byte, page 0, past the break
			// or near the allocation limit.
			addr := func() Addr {
				switch k := rng.Intn(8); {
				case k < 3 && len(live) > 0:
					r := live[rng.Intn(len(live))]
					return r.Base + Addr(rng.Intn(r.Size))
				case k == 3 && len(live) > 0:
					return live[rng.Intn(len(live))].End() - 1
				case k == 4 && len(dead) > 0:
					r := dead[rng.Intn(len(dead))]
					return r.Base + Addr(rng.Intn(r.Size))
				case k == 5:
					return Addr(rng.Intn(PageSize))
				case k == 6:
					return m.brk + Addr(rng.Intn(3*PageSize))
				default:
					return c.limit - Addr(rng.Intn(2*PageSize)) - 1
				}
			}
			size := func() int { return rng.Intn(2*PageSize + 1) }
			region := func() Region {
				if len(live) > 0 && rng.Intn(4) > 0 {
					return live[rng.Intn(len(live))]
				}
				return Region{Base: addr(), Size: size()}
			}
			perms := []Perm{PermNone, PermRead, PermWrite, PermRW, PermExec, PermRead | PermExec, PermRW | PermExec, PermWrite | PermExec}

			for op := 0; op < c.ops; op++ {
				var what string
				var err error
				switch k := rng.Intn(20); {
				case k < 3:
					n := rng.Intn(3*PageSize) + 1
					if rng.Intn(20) == 0 {
						n = 0
					}
					what = fmt.Sprintf("Alloc(%d)", n)
					r, gerr := s.Alloc(n)
					wr, werr := m.alloc(n)
					if err = sameError(gerr, werr); err == nil && r != wr {
						err = fmt.Errorf("region %+v, reference %+v", r, wr)
					}
					if gerr == nil {
						live = append(live, r)
					}
				case k < 5 && len(live) > 0:
					i := rng.Intn(len(live))
					r := live[i]
					live = append(live[:i], live[i+1:]...)
					dead = append(dead, r)
					what = fmt.Sprintf("Free(%+v)", r)
					err = sameError(s.Free(r), m.free(r))
				case k == 5:
					r := Region{Base: m.brk + Addr(rng.Intn(4))*PageSize, Size: size()}
					what = fmt.Sprintf("Free(%+v) past the break", r)
					err = sameError(s.Free(r), m.free(r))
				case k < 8:
					r, p := region(), perms[rng.Intn(len(perms))]
					what = fmt.Sprintf("Protect(%#x, %d, %v)", uint64(r.Base), r.Size, p)
					n, gerr := s.Protect(r.Base, r.Size, p)
					wn, werr := m.protect(r.Base, r.Size, p)
					if err = sameError(gerr, werr); err == nil && n != wn {
						err = fmt.Errorf("protected %d pages, reference %d", n, wn)
					}
				case k < 9:
					r, key := region(), Key(rng.Intn(int(MaxKey)+2))
					what = fmt.Sprintf("SetKey(%+v, %d)", r, key)
					err = sameError(s.SetKey(r, key), m.setKey(r, key))
				case k < 10:
					key, rd, wr := Key(rng.Intn(int(MaxKey)+2)), rng.Intn(2) == 0, rng.Intn(2) == 0
					what = fmt.Sprintf("SetKeyAccess(%d, %v, %v)", key, rd, wr)
					err = sameError(s.SetKeyAccess(key, rd, wr), m.setKeyAccess(key, rd, wr))
				case k < 14:
					a, n := addr(), size()
					what = fmt.Sprintf("Load(%#x, %d)", uint64(a), n)
					got, gerr := s.Load(a, n)
					want, werr := m.read(a, n, AccessRead)
					if err = sameError(gerr, werr); err == nil && !bytes.Equal(got, want) {
						err = fmt.Errorf("loaded %x, reference %x", got, want)
					}
				case k < 18:
					a, n := addr(), size()
					buf := make([]byte, n)
					rng.Read(buf)
					what = fmt.Sprintf("Store(%#x, %d bytes)", uint64(a), n)
					err = sameError(s.Store(a, buf), m.store(a, buf))
				default:
					a, n := addr(), size()
					what = fmt.Sprintf("Exec(%#x, %d)", uint64(a), n)
					got, gerr := s.Exec(a, n)
					want, werr := m.read(a, n, AccessExec)
					if err = sameError(gerr, werr); err == nil && !bytes.Equal(got, want) {
						err = fmt.Errorf("fetched %x, reference %x", got, want)
					}
				}
				if err != nil {
					t.Fatalf("op %d %s: %v", op, what, err)
				}
				if got, want := s.Stats(), m.statsNow(); got != want {
					t.Fatalf("op %d %s: stats %+v, reference %+v", op, what, got, want)
				}
			}
			// Every live byte still agrees.
			for _, r := range live {
				if _, err := s.Protect(r.Base, r.Size, PermRead); err != nil {
					t.Fatal(err)
				}
				_, _ = m.protect(r.Base, r.Size, PermRead)
				for k := Key(1); k <= MaxKey; k++ {
					_ = s.SetKeyAccess(k, true, true)
					_ = m.setKeyAccess(k, true, true)
				}
				got, gerr := s.Load(r.Base, r.Size)
				want, werr := m.read(r.Base, r.Size, AccessRead)
				if gerr != nil || werr != nil || !bytes.Equal(got, want) {
					t.Fatalf("region %+v: bytes differ from the reference (%v, %v)", r, gerr, werr)
				}
			}
		})
	}
}
