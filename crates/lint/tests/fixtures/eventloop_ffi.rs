//! Fixture: calls into functions declared in an `extern` block. The
//! analysis cannot see into foreign code, so each call on the event-loop
//! path is blocking unless annotated; off-path calls stay silent.

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

pub fn event_loop(fds: &mut [PollFd]) {
    loop {
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 25) };
        audited_wait(fds);
        serve(ready);
    }
}

fn audited_wait(fds: &mut [PollFd]) {
    // lint:allow(eventloop, reason = "the park itself: ended by readiness or the timeout")
    let _ = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 25) };
}

fn background(fds: &mut [PollFd]) {
    let _ = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, -1) };
}
