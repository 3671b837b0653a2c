package group

import (
	"fmt"
	"strings"
	"sync"
)

// The MODP safe primes from RFC 2409 (Oakley group 2) and RFC 3526
// (groups 14 and 15). These are the standard 1024/2048/3072-bit DL moduli
// corresponding to the paper's 80/112/128-bit security levels per the NIST
// FIPS 140-2 implementation guidance. Each group is built alone, from its
// constant, on first use: NewDLGroup checks that p and q are prime then,
// and the test suite checks it again, so naming one group does not pay
// for the other two.
const (
	_modp1024Hex = `
	FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
	29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
	EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
	E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
	EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE65381
	FFFFFFFF FFFFFFFF`

	_modp2048Hex = `
	FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
	29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
	EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
	E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
	EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
	C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
	83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
	670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
	E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
	DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
	15728E5A 8AACAA68 FFFFFFFF FFFFFFFF`

	_modp3072Hex = `
	FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
	29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
	EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
	E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
	EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
	C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
	83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
	670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
	E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
	DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
	15728E5A 8AAAC42D AD33170D 04507A33 A85521AB DF1CBA64
	ECFB8504 58DBEF0A 8AEA7157 5D060C7D B3970F85 A6E1E4C7
	ABF5AE8C DB0933D7 1E8C94E0 4A25619D CEE3D226 1AD2EE6B
	F12FFA06 D98A0864 D8760273 3EC86A64 521F2B18 177B200C
	BBE11757 7A615D6C 770988C0 BAD946E2 08E24FA0 74E5AB31
	43DB5BFC E0FD108E 4B82D120 A93AD2CA FFFFFFFF FFFFFFFF`
)

// dlDef is the constant of one named DL group: its safe prime in hex
// (whitespace is ignored).
type dlDef struct {
	name         string
	hex          string
	securityBits int
}

// lazyDL builds and validates a DL group on first use, on its own, the
// way lazyCurve builds a curve.
func lazyDL(d dlDef) func() *DLGroup {
	return sync.OnceValue(func() *DLGroup { return mustDL(d) })
}

// mustDL parses d's prime and builds its group through NewDLGroup, which
// tests p and q for primality.
func mustDL(d dlDef) *DLGroup {
	p := mustHex(d.name, "p", strings.Join(strings.Fields(d.hex), ""))
	g, err := NewDLGroup(d.name, p, d.securityBits)
	if err != nil {
		panic(fmt.Sprintf("group: invalid %s constant: %v", d.name, err))
	}
	return g
}

var (
	modp1024 = dlDef{name: "modp-1024", hex: _modp1024Hex, securityBits: 80}
	modp2048 = dlDef{name: "modp-2048", hex: _modp2048Hex, securityBits: 112}
	modp3072 = dlDef{name: "modp-3072", hex: _modp3072Hex, securityBits: 128}

	_modp1024 = lazyDL(modp1024)
	_modp2048 = lazyDL(modp2048)
	_modp3072 = lazyDL(modp3072)
)

// MODP1024 returns the RFC 2409 1024-bit safe-prime group (80-bit security).
func MODP1024() *DLGroup { return _modp1024() }

// MODP2048 returns the RFC 3526 2048-bit safe-prime group (112-bit security).
func MODP2048() *DLGroup { return _modp2048() }

// MODP3072 returns the RFC 3526 3072-bit safe-prime group (128-bit security).
func MODP3072() *DLGroup { return _modp3072() }
