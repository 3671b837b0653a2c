package group

// Oracle returns g's math/big reference curve (oracle_test.go) to the
// package's external tests.
func Oracle(g *ECGroup) Group { return oracleOf(g) }
