package chunker

import (
	"encoding/binary"
	"math/bits"
)

// Poly is a polynomial over GF(2), bit i representing the coefficient of x^i.
type Poly uint64

// _rabinPoly is an irreducible polynomial of degree 53, the same default
// used by well-known Rabin chunker implementations. Irreducibility makes
// the rolling fingerprint behave like a uniform hash of the window.
const _rabinPoly Poly = 0x3DA3358B4DC173

// _rabinWindow is the number of bytes the rolling fingerprint covers.
// 48 bytes is the classic choice (LBFS and descendants).
const _rabinWindow = 48

func polyDeg(p Poly) int {
	if p == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(p))
}

func polyMod(x, p Poly) Poly {
	dp := polyDeg(p)
	for d := polyDeg(x); d >= dp; d = polyDeg(x) {
		x ^= p << uint(d-dp)
	}
	return x
}

// appendByte folds one byte into hash, reducing modulo pol.
func appendByte(hash Poly, b byte, pol Poly) Poly {
	hash <<= 8
	hash |= Poly(b)
	return polyMod(hash, pol)
}

// rabinTables holds the precomputed shift-out and reduction tables for a
// given polynomial and window size.
type rabinTables struct {
	out   [256]Poly // contribution of the byte leaving the window
	mod   [256]Poly // reduction values for the rolling append
	shift uint      // digest bits above which reduction applies
}

func calcRabinTables(pol Poly, window int) *rabinTables {
	t := &rabinTables{shift: uint(polyDeg(pol) - 8)}
	for b := 0; b < 256; b++ {
		var h Poly
		h = appendByte(h, byte(b), pol)
		for i := 0; i < window-1; i++ {
			h = appendByte(h, 0, pol)
		}
		t.out[b] = h
	}
	k := uint(polyDeg(pol))
	for b := 0; b < 256; b++ {
		t.mod[b] = polyMod(Poly(b)<<k, pol) | Poly(b)<<k
	}
	return t
}

// _rabinTab is shared by all rabin chunkers; the polynomial and window are
// fixed so the table is computed once.
var _rabinTab = calcRabinTables(_rabinPoly, _rabinWindow)

// _rabinSeed is the digest after the rolling hash's reset: one 0x01
// guard byte folded into an all-zero window, so an all-zero stream does
// not yield digest 0 (which would match any mask immediately). Computed
// from the tables rather than hard-coded so it tracks _rabinPoly.
var _rabinSeed = func() Poly {
	var d Poly
	d ^= _rabinTab.out[0] // the zero byte leaving an empty window
	idx := byte(d >> _rabinTab.shift)
	d = d<<8 | 1
	d ^= _rabinTab.mod[idx]
	return d
}()

// rabinScan returns the cut offset (1..len(win)) the rolling Rabin
// fingerprint picks in win: the first position >= min whose digest
// matches mask, or len(win) if none does.
//
// It is the hot-loop form of the textbook implementation (kept as
// refRabinHash in reference_test.go and pinned bit-identical by the
// differential fuzz harness): instead of maintaining a circular window
// buffer and calling a slide method per byte, the loop derives the
// outgoing window byte positionally in three phases —
//
//	phase 1, i < window-1: the outgoing byte is one of the reset's
//	  zeros, and tab.out[0] == 0, so the fold-out is a no-op;
//	phase 2, i == window-1: the 0x01 guard byte leaves;
//	phase 3, i >= window: win[i-window] leaves.
func rabinScan(tab *rabinTables, win []byte, min int, mask Poly) int {
	if min > _rabinWindow {
		return rabinScanSkip(tab, win, min, mask)
	}
	n := len(win)
	shift := tab.shift
	digest := _rabinSeed
	i := 0
	p1 := _rabinWindow - 1
	if p1 > n {
		p1 = n
	}
	for ; i < p1; i++ {
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min && digest&mask == mask {
			return i + 1
		}
	}
	if i < n {
		digest ^= tab.out[1]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min && digest&mask == mask {
			return i + 1
		}
		i++
	}
	for ; i < n; i++ {
		digest ^= tab.out[win[i-_rabinWindow]]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min && digest&mask == mask {
			return i + 1
		}
	}
	return n
}

// rabinScanSkip is rabinScan for min > window, the production
// configuration (2 KB min, 48-byte window). Because the fold-out in
// phase 3 is exact, the digest at any position i >= window-1 is a
// pure function of the trailing window bytes, so the scan starts a
// window before the first tested position instead of at 0 — the
// cut-point-skip trick fastcdcScan uses, transplanted to the rolling
// Rabin hash. Two further restructurings over rabinScan:
//
//   - the i+1 >= min test is hoisted out entirely: the warm-up prefix
//     tests nothing, and every position from the guard step on is
//     >= min by construction;
//   - the steady-state loop strides 8 bytes: one 64-bit load each for
//     the incoming and outgoing bytes replaces 16 bounds-checked byte
//     loads, and the 8 steps consume the loaded words from registers.
//
// Bit-identical to rabinScan by the differential fuzz harness.
func rabinScanSkip(tab *rabinTables, win []byte, min int, mask Poly) int {
	n := len(win)
	shift := tab.shift
	digest := _rabinSeed
	// Warm the hash over the window preceding the first tested
	// position; no cut tests happen here.
	i := min - _rabinWindow
	for e := min - 1; i < e; i++ {
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
	}
	// Guard step: the 0x01 reset byte leaves; the first tested cut is
	// min itself.
	digest ^= tab.out[1]
	idx := byte(digest >> shift)
	digest = digest<<8 | Poly(win[i])
	digest ^= tab.mod[idx]
	if digest&mask == mask {
		return i + 1
	}
	i++
	for ; i+8 <= n; i += 8 {
		in := binary.LittleEndian.Uint64(win[i:])
		out := binary.LittleEndian.Uint64(win[i-_rabinWindow:])
		for k := 0; k < 8; k++ {
			digest ^= tab.out[byte(out)]
			out >>= 8
			idx := byte(digest >> shift)
			digest = digest<<8 | Poly(byte(in))
			in >>= 8
			digest ^= tab.mod[idx]
			if digest&mask == mask {
				return i + k + 1
			}
		}
	}
	for ; i < n; i++ {
		digest ^= tab.out[win[i-_rabinWindow]]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if digest&mask == mask {
			return i + 1
		}
	}
	return n
}
