// Fixture: dropped transport errors. Checked impersonated as
// internal/mpi (must fire) and cmd/edgeswitch (exempt path). The rule
// reads syntax only, so the no-error quiet.Close below is flagged too.
package fixture

type conn struct{}

func (conn) Send(dst int, b []byte) error { return nil }

func (conn) Recv() ([]byte, error) { return nil, nil }

func (conn) Close() error { return nil }

type quiet struct{}

func (quiet) Close() {}

func Teardown(c conn) {
	c.Send(0, nil)
	c.Close()
}

func Drain(c conn) {
	c.Recv()
}

func Silent(q quiet) {
	q.Close() // returns no error, flagged all the same
}
