package nectar

import "github.com/nectar-repro/nectar/internal/rounds"

// LiteralOrder wraps nd with the literal Alg. 1 l. 14 check order (see
// literalOrder), for the external tests.
func LiteralOrder(nd *Node) rounds.Protocol { return literalOrder{nd} }
