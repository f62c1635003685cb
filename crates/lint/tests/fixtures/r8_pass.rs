//! R8 negative fixture: the same merge points with a deterministic sort
//! before iteration, plus an unrelated collection name.

pub fn flush(results: &mut Vec<(u64, Report)>, sink: &mut Sink) {
    results.sort_unstable_by_key(|entry| entry.0);
    for (_, report) in results.drain(..) {
        sink.record(&report);
    }
}

pub struct Pool {
    results: Vec<Report>,
}

impl Pool {
    pub fn publish(&mut self) {
        self.results.sort_by_key(|report| report.cell);
        for report in self.results.iter() {
            publish(report);
        }
    }
}

pub fn consume(items: Vec<u64>) -> u64 {
    let mut total = 0;
    for i in items.into_iter() {
        total += i;
    }
    total
}
