package rounds

// RunLayout is run for the external tests: Run with the staging layout
// forced instead of chosen from n.
func RunLayout(cfg Config, nodes []Protocol, soa bool) (*Metrics, error) {
	return run(cfg, nodes, soa)
}
