module harassrepro/bench

go 1.22

require harassrepro v0.0.0

replace harassrepro => ../
