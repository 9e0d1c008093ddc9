"""Behavioural tests for the SQL Server workload."""

import pytest

from repro.clients import SqlClient
from repro.net.http import SqlRequest, SqlResponse
from repro.net.transport import Side
from repro.nt.scm import ServiceState
from repro.servers import content, sqlserver


def _client(machine, query=None, until=120.0):
    client = SqlClient(**({"query": query} if query else {}))
    machine.processes.spawn(client, role="client")
    machine.run(until=until)
    return client


class TestStartup:
    def test_reports_running_only_after_recovery(self, machine, sql_service):
        machine.run(until=3.0)
        assert sql_service.state is ServiceState.START_PENDING
        machine.run(until=12.0)
        assert sql_service.state is ServiceState.RUNNING
        assert machine.transport.is_listening(content.SQL_PORT)

    def test_table1_function_profile(self, machine, sql_service):
        machine.run(until=12.0)
        _client(machine)
        assert len(machine.interception.called_functions("sql")) == 71

    def test_writes_startup_banner_to_errorlog(self, machine, sql_service):
        machine.run(until=12.0)
        log = machine.fs.read_file(f"{content.SQL_ROOT}\\log\\errorlog")
        assert log == b"SQL Server starting"


class TestQueries:
    def test_workload_query_answers_correctly(self, machine, sql_service):
        machine.run(until=12.0)
        client = _client(machine)
        assert client.record.all_succeeded

    def test_arbitrary_select_supported(self, machine, sql_service):
        machine.run(until=12.0)
        responses = []

        class AdHoc:
            image_name = "adhoc.exe"

            def main(self, ctx):
                transport = ctx.machine.transport
                conn = yield from transport.connect(1433, ctx.process)
                transport.send(conn, Side.CLIENT, SqlRequest(
                    "SELECT COUNT(*) FROM inventory"))
                responses.append(
                    (yield from transport.recv(conn, Side.CLIENT,
                                               timeout=30.0)))

        machine.processes.spawn(AdHoc(), role="adhoc")
        machine.run(until=machine.now + 30.0)
        assert isinstance(responses[0], SqlResponse)
        assert responses[0].ok
        assert responses[0].row_count == 1

    def test_malformed_query_returns_error_response(self, machine,
                                                    sql_service):
        machine.run(until=12.0)
        client = _client(machine, query="SELEC wrong", until=250.0)
        record = client.record.requests[0]
        assert not record.succeeded
        assert record.any_response_received


class TestDataFileDamage:
    def _boot_with_truncated_data(self, machine, keep_bytes):
        content.install_sql_content(machine.fs)
        original = machine.fs.read_file(content.SQL_DATA_FILE)
        machine.fs.write_file(content.SQL_DATA_FILE, original[:keep_bytes])
        sqlserver.register_images(machine)
        machine.scm.create_service(sqlserver.SERVICE_NAME,
                                   sqlserver.SQL_IMAGE, wait_hint=25.0)
        machine.scm.start_service(sqlserver.SERVICE_NAME)

    def test_truncated_data_file_aborts_or_degrades(self, machine):
        # The paper's documented non-determinism: damaged recovery data
        # is sometimes detected (abort) and sometimes served wrong.
        self._boot_with_truncated_data(machine, keep_bytes=400)
        machine.run(until=30.0)
        process = machine.processes.processes_with_role("sql")[0]
        if process.alive:
            client = _client(machine, until=300.0)
            assert not client.record.all_succeeded
        else:
            assert process.exit_code == 1  # clean detected-error abort

    def test_detection_choice_is_seed_deterministic(self):
        from repro.nt import Machine

        def boots_alive(seed):
            machine = Machine(seed=seed)
            content.install_sql_content(machine.fs)
            original = machine.fs.read_file(content.SQL_DATA_FILE)
            machine.fs.write_file(content.SQL_DATA_FILE, original[:400])
            sqlserver.register_images(machine)
            machine.scm.create_service(sqlserver.SERVICE_NAME,
                                       sqlserver.SQL_IMAGE, wait_hint=25.0)
            machine.scm.start_service(sqlserver.SERVICE_NAME)
            machine.run(until=30.0)
            return machine.processes.processes_with_role("sql")[0].alive

        assert boots_alive(5) == boots_alive(5)
        outcomes = {boots_alive(seed) for seed in range(12)}
        assert outcomes == {True, False}  # both behaviours occur


class TestRecoveryImage:
    """Recovery replays the data file once per distinct content per
    process; every boot still gets tables of its own and, from damaged
    bytes, its own detection coin."""

    @staticmethod
    def _boot(data, seed=17):
        from repro.nt import Machine

        machine = Machine(seed=seed)
        content.install_sql_content(machine.fs)
        machine.fs.write_file(content.SQL_DATA_FILE, data)
        sqlserver.register_images(machine)
        machine.scm.create_service(sqlserver.SERVICE_NAME,
                                   sqlserver.SQL_IMAGE, wait_hint=25.0)
        machine.scm.start_service(sqlserver.SERVICE_NAME)
        machine.run(until=30.0)
        return machine.processes.processes_with_role("sql")[0]

    def test_boots_from_the_same_bytes_share_no_row_list(self):
        data = content.sql_data_script()
        first = self._boot(data).program._database
        second = self._boot(data).program._database
        before = list(second.table("inventory").rows)
        assert first.table("inventory").rows == before

        first.execute("INSERT INTO inventory VALUES (41, 'part-041', 3, 10.75)")
        assert len(first.table("inventory")) == 41
        assert second.table("inventory").rows == before
        assert first.table("inventory").rows is not \
            second.table("inventory").rows

    def test_boots_from_the_same_torn_bytes_draw_the_coin_each(
            self, monkeypatch):
        from repro.servers.sql import executor
        from repro.sim.rng import RandomStreams

        draws = []
        chance = RandomStreams.chance

        def counted(streams, name, probability):
            draws.append(name)
            return chance(streams, name, probability)

        monkeypatch.setattr(RandomStreams, "chance", counted)
        torn = content.sql_data_script()[:400]
        self._boot(torn)
        hits = executor._recovered.cache_info().hits
        self._boot(torn)
        assert executor._recovered.cache_info().hits == hits + 1
        assert draws.count("sql-recovery-check") == 2
