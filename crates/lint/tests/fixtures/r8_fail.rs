//! R8 positive fixture: a worker pool's result collection drained or
//! iterated with no preceding sort in the same function.

pub fn flush(results: &mut Vec<(u64, Report)>, sink: &mut Sink) {
    for (_, report) in results.drain(..) {
        sink.record(&report);
    }
}

pub struct Pool {
    results: Vec<Report>,
}

impl Pool {
    pub fn publish(&mut self) {
        for report in self.results.iter() {
            publish(report);
        }
    }
}

pub fn reassemble(results: Vec<Report>) -> Vec<Report> {
    results.into_iter().collect()
}
