// The benchmark is a module of its own so that it builds from bench/ alone
// plus the repository it measures: the module path sits under eleos/, which
// is what lets it import eleos/internal/..., and the replace points at the
// checkout it was started from.
module eleos/bench

go 1.22

require eleos v0.0.0

replace eleos => ../
