// The benchmark is its own module so it builds from its own directory; the
// replace points at the repository it measures, whose internal packages it
// may import because its module path sits under theirs.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
