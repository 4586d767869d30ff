package core

// ProxyHighWater reports the high-water mark of the runtime's source
// proxy address space, for the teardown census.
func ProxyHighWater(rt *Runtime) uint64 {
	hw, _, _, _ := rt.proxy.Stats()
	return hw
}
