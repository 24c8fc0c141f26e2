package chunker

import "encoding/binary"

// TTTD implements the Two Thresholds, Two Divisors algorithm (Eshghi &
// Tang, HP Labs), the chunker HiDeStore's prototype uses (§5.1). It scans
// with a rolling Rabin fingerprint and keeps two divisors: the main divisor
// D yields the target average size; the backup divisor D' = D/2 fires twice
// as often and records a fallback cut point. If no main cut appears before
// the maximum threshold, the most recent backup cut is used, which keeps
// forced cuts content-defined instead of positional. Divisor derivation
// lives in newDecider (decide.go).

// tttdScan returns the cut offset in win: the first position >= min
// matching the main divisor; failing that, the last position matching
// the backup divisor if the window is a full max-size window; failing
// that, len(win). Same three-phase digest walk as rabinScan (the
// outgoing window byte is derived positionally); bit-identical to the
// reference implementation by the differential fuzz harness.
func tttdScan(tab *rabinTables, win []byte, min int, mainDiv, backDiv Poly, isMaxWindow bool) int {
	if min > _rabinWindow {
		return tttdScanSkip(tab, win, min, mainDiv, backDiv, isMaxWindow)
	}
	n := len(win)
	shift := tab.shift
	digest := _rabinSeed
	backup := 0
	i := 0
	p1 := _rabinWindow - 1
	if p1 > n {
		p1 = n
	}
	for ; i < p1; i++ {
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min {
			if digest&backDiv == backDiv {
				backup = i + 1
			}
			if digest&mainDiv == mainDiv {
				return i + 1
			}
		}
	}
	if i < n {
		digest ^= tab.out[1]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min {
			if digest&backDiv == backDiv {
				backup = i + 1
			}
			if digest&mainDiv == mainDiv {
				return i + 1
			}
		}
		i++
	}
	for ; i < n; i++ {
		digest ^= tab.out[win[i-_rabinWindow]]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min {
			if digest&backDiv == backDiv {
				backup = i + 1
			}
			if digest&mainDiv == mainDiv {
				return i + 1
			}
		}
	}
	if isMaxWindow && backup > 0 {
		return backup
	}
	return n
}

// tttdScanSkip is tttdScan for min > window: same restructurings as
// rabinScanSkip (start a window before the first tested position,
// hoist the min test, 8-byte strides in the steady state). The backup
// divisor fires often — roughly every D/2 bytes — so its tracking is
// written as a plain conditional assignment, which the compiler turns
// into a branch-free conditional move. Bit-identical to tttdScan by
// the differential fuzz harness.
func tttdScanSkip(tab *rabinTables, win []byte, min int, mainDiv, backDiv Poly, isMaxWindow bool) int {
	n := len(win)
	shift := tab.shift
	digest := _rabinSeed
	backup := 0
	i := min - _rabinWindow
	for e := min - 1; i < e; i++ {
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
	}
	digest ^= tab.out[1]
	idx := byte(digest >> shift)
	digest = digest<<8 | Poly(win[i])
	digest ^= tab.mod[idx]
	if digest&backDiv == backDiv {
		backup = i + 1
	}
	if digest&mainDiv == mainDiv {
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
			if digest&backDiv == backDiv {
				backup = i + k + 1
			}
			if digest&mainDiv == mainDiv {
				return i + k + 1
			}
		}
	}
	for ; i < n; i++ {
		digest ^= tab.out[win[i-_rabinWindow]]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if digest&backDiv == backDiv {
			backup = i + 1
		}
		if digest&mainDiv == mainDiv {
			return i + 1
		}
	}
	if isMaxWindow && backup > 0 {
		return backup
	}
	return n
}
