import socket

import pytest

from crawlrank import MockFetcher

LOOPBACK_NAMES = ("localhost", "127.0.0.1", "::1")


@pytest.fixture(autouse=True)
def loopback_resolver(monkeypatch):
    """Resolve the loopback names only, so that no test asks the system
    resolver for a name; any other name fails as an unknown one would. A
    test may still stand in its own resolver."""
    getaddrinfo = socket.getaddrinfo

    def resolve(host, *args, **kwargs):
        if host not in LOOPBACK_NAMES:
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")
        return getaddrinfo(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", resolve)


@pytest.fixture
def write_corpus(tmp_path):
    """Factory writing a url -> body corpus as a mock fetcher directory."""

    def _write(corpus: dict, name: str = "corpus"):
        directory = tmp_path / name
        directory.mkdir(exist_ok=True)
        for url, body in corpus.items():
            (directory / MockFetcher.corpus_filename(url)).write_bytes(body)
        return directory

    return _write
