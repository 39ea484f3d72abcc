package dslkernel

// InterpretOnly runs every loop compiled until restore is called on the
// interpreter, inside the VM's subset or not (interpretOnly).
func InterpretOnly() (restore func()) {
	interpretOnly.Store(true)
	return func() { interpretOnly.Store(false) }
}
