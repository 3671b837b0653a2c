package fixedbig

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// DRBG is a deterministic random byte stream derived from a seed via
// SHA-256 in counter mode. It implements io.Reader and is every
// protocol party's randomness on every tier: the party's role DRBG is
// keyed by a seed that is explicit (the caller pinned it, for
// reproducible runs), journaled (a restarted party re-derives its first
// life's stream) or drawn locally by DrawSeed — 128 bits from
// crypto/rand. The party's secrets are exactly as private as that seed:
// a drawn seed never leaves the party, and an explicit one is shared
// only as far as the caller who pinned it shares it.
type DRBG struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

// NewDRBG returns a deterministic reader seeded from the given string.
func NewDRBG(seed string) *DRBG {
	return &DRBG{seed: sha256.Sum256([]byte(seed))}
}

// Read fills p with deterministic pseudo-random bytes. It never fails.
func (d *DRBG) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(d.buf) == 0 {
			var block [40]byte
			copy(block[:32], d.seed[:])
			binary.BigEndian.PutUint64(block[32:], d.ctr)
			d.ctr++
			h := sha256.Sum256(block[:])
			d.buf = h[:]
		}
		k := copy(p, d.buf)
		d.buf = d.buf[k:]
		p = p[k:]
	}
	return n, nil
}

// DrawSeed returns seed when it is non-empty, otherwise a fresh 128-bit
// seed drawn from crypto/rand, hex-encoded.
func DrawSeed(seed string) (string, error) {
	if seed != "" {
		return seed, nil
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("fixedbig: drawing seed: %w", err)
	}
	return hex.EncodeToString(raw[:]), nil
}
