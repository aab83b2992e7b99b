package ts

// Prefix holds prefix sums over a series that make the sufficient statistics
// of any window [lo, hi) available in O(1):
//
//	S0 = Σ c_t            (t in window)
//	S1 = Σ (t−lo)·c_t     (time measured from the window start)
//	S2 = Σ c_t²
//
// These are exactly the quantities needed to evaluate the least-squares line
// fit of paper Eq. (1) over any segment, which subsumes the incremental
// recurrences of Eqs. (2)–(11) while being numerically more robust.
type Prefix struct {
	n  int
	c  []float64 // c[i]  = Σ_{t<i} c_t
	tc []float64 // tc[i] = Σ_{t<i} t·c_t   (global t)
	cc []float64 // cc[i] = Σ_{t<i} c_t²
}

// NewPrefix builds prefix sums over s in O(n).
func NewPrefix(s Series) *Prefix {
	p := &Prefix{}
	p.Reset(s)
	return p
}

// Reset rebuilds the prefix sums over s, reusing the existing buffers when
// they are large enough. It makes a long-lived Prefix allocation-free across
// series of non-growing length.
func (p *Prefix) Reset(s Series) {
	n := len(s)
	p.n = n
	if cap(p.c) < n+1 {
		p.c = make([]float64, n+1)
		p.tc = make([]float64, n+1)
		p.cc = make([]float64, n+1)
	}
	p.c, p.tc, p.cc = p.c[:n+1], p.tc[:n+1], p.cc[:n+1]
	p.c[0], p.tc[0], p.cc[0] = 0, 0, 0
	for i, v := range s {
		p.c[i+1] = p.c[i] + v
		p.tc[i+1] = p.tc[i] + float64(i)*v
		p.cc[i+1] = p.cc[i] + v*v
	}
}

// Len returns the length of the underlying series.
func (p *Prefix) Len() int { return p.n }

// Window returns the sufficient statistics of the half-open window [lo, hi):
// the number of points l, S0, S1 (time measured from lo) and S2.
// It panics if the window is out of range or empty.
func (p *Prefix) Window(lo, hi int) (l int, s0, s1, s2 float64) {
	if lo < 0 || hi > p.n || lo >= hi {
		panic("ts: invalid window")
	}
	l = hi - lo
	s0 = p.c[hi] - p.c[lo]
	// Global Σ t·c_t shifted so that time starts at 0 inside the window.
	s1 = (p.tc[hi] - p.tc[lo]) - float64(lo)*s0
	s2 = p.cc[hi] - p.cc[lo]
	return l, s0, s1, s2
}

// Sum returns Σ c_t over [lo, hi).
func (p *Prefix) Sum(lo, hi int) float64 { return p.c[hi] - p.c[lo] }
