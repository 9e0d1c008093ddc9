"""A static request copies its page once.

The 115 kB page goes from the file straight into the heap block the
server allocated, and the response is sized and checksummed from that
block: no other page-sized buffer is built on the way (the checksum
memo adds one copy on a miss, none on a hit).  ``tracemalloc`` sees
every Python allocation, so the peak over one request bounds the
number of page copies alive at once.
"""

import tracemalloc

import pytest

from repro.net.http import HttpRequest, HttpResponse
from repro.net.transport import Side
from repro.servers import apache, content, iis

from .conftest import start_service

PAGE = content.STATIC_PAGE_SIZE


def _request(machine, replies):
    class OneRequest:
        image_name = "probe.exe"

        def main(self, ctx):
            transport = ctx.machine.transport
            conn = yield from transport.connect(content.HTTP_PORT,
                                                ctx.process, timeout=5.0)
            transport.send(conn, Side.CLIENT,
                           HttpRequest(content.STATIC_PATH))
            replies.append((yield from transport.recv(conn, Side.CLIENT,
                                                      timeout=60.0)))
            transport.close(conn, Side.CLIENT)

    machine.processes.spawn(OneRequest(), role="client")
    machine.run(until=machine.now + 60.0)


@pytest.mark.parametrize("module, installer", [
    (iis, content.install_iis_content),
    (apache, content.install_apache_content),
], ids=["IIS", "Apache1"])
def test_static_request_holds_one_page_copy(machine, module, installer):
    start_service(machine, module, installer)
    machine.run(until=15.0)
    replies, peaks = [], []
    for _ in range(2):
        tracemalloc.start()
        try:
            _request(machine, replies)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    expected = content.expected_results()
    assert len(replies) == 2
    for reply in replies:
        assert isinstance(reply, HttpResponse)
        assert reply.matches(expected.static_size, expected.static_checksum)
    # The heap block, plus the memo's copy if the first checksum
    # missed, plus simulation bookkeeping: any other page-sized buffer
    # alive at the same time breaks the bound.
    assert peaks[0] < 2.5 * PAGE, f"first request peak {peaks[0]} B"
    # The repeated page is a memo hit: the heap block is the one copy.
    assert peaks[1] < 1.5 * PAGE, f"second request peak {peaks[1]} B"
