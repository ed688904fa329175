// Package idle: an interface method nothing calls through the interface.
package idle

type Idle interface {
	Used()
	Nobody() // reported: T.Nobody's direct caller does not use it
}

type T struct{}

func (T) Used()   {}
func (T) Nobody() {}

func Call(i Idle) { i.Used() }

func Direct(t T) { t.Nobody() }
