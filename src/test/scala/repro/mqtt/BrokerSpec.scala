package repro.mqtt

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.jdk.CollectionConverters._

class BrokerSpec extends AnyFunSuite {

  test("exact topic match delivers") {
    val b = new Broker
    val got = mutable.Buffer.empty[(String, String)]
    b.subscribe("ctt/trd/ctt-trd-01/up") { (t, p) => got += ((t, p)) }
    b.publish("ctt/trd/ctt-trd-01/up", "hello")
    assert(got == Seq(("ctt/trd/ctt-trd-01/up", "hello")))
  }

  test("non-matching topic does not deliver") {
    val b = new Broker
    var n = 0
    b.subscribe("ctt/trd/a/up") { (_, _) => n += 1 }
    b.publish("ctt/trd/b/up", "x")
    assert(n == 0)
  }

  test("+ wildcard matches exactly one level") {
    val b = new Broker
    assert(b.matches("ctt/+/up", "ctt/dev1/up"))
    assert(!b.matches("ctt/+/up", "ctt/dev1/extra/up"))
    assert(!b.matches("ctt/+/up", "ctt/up"))
  }

  test("# wildcard matches any suffix including empty tail at its level") {
    val b = new Broker
    assert(b.matches("ctt/#", "ctt/dev1/up"))
    assert(b.matches("ctt/#", "ctt/a/b/c"))
    assert(!b.matches("ctt/#", "other/dev1"))
  }

  test("# alone matches everything") {
    val b = new Broker
    assert(b.matches("#", "a/b/c"))
    assert(b.matches("#", "x"))
  }

  test("multiple subscribers all receive") {
    val b = new Broker
    var n = 0
    b.subscribe("t/#") { (_, _) => n += 1 }
    b.subscribe("t/+") { (_, _) => n += 1 }
    b.publish("t/x", "p")
    assert(n == 2)
  }

  test("delivery preserves publication order per subscriber") {
    val b = new Broker
    val got = mutable.Buffer.empty[String]
    b.subscribe("s/#") { (_, p) => got += p }
    (1 to 100).foreach(i => b.publish("s/x", i.toString))
    assert(got.toSeq == (1 to 100).map(_.toString))
  }

  test("retained message replays to a late subscriber") {
    val b = new Broker
    b.publish("cfg/node1", "interval=5", retain = true)
    var got = ""
    b.subscribe("cfg/#") { (_, p) => got = p }
    assert(got == "interval=5")
  }

  test("unsubscribe stops delivery") {
    val b = new Broker
    var n = 0
    val s = b.subscribe("a/#") { (_, _) => n += 1 }
    b.publish("a/x", "1")
    b.unsubscribe(s)
    b.publish("a/x", "2")
    assert(n == 1)
  }

  test("publishedCount counts every publish") {
    val b = new Broker
    (1 to 7).foreach(i => b.publish("x", i.toString))
    assert(b.publishedCount == 7)
  }

  test("FileBridge writes JSON lines and rolls files atomically") {
    val dir = Files.createTempDirectory("bridge-test").toFile
    val b = new Broker
    val bridge = new FileBridge(b, "up/#", dir, rollEvery = 10)
    (1 to 25).foreach(i => b.publish("up/dev", s"""{"i":$i}"""))
    bridge.close()
    val files = dir.listFiles().filter(_.getName.startsWith("bridge_")).sortBy(_.getName)
    assert(files.length == 3, files.map(_.getName).mkString(","))
    val lines = files.flatMap(f => Files.readAllLines(f.toPath).asScala)
    assert(lines.length == 25)
    assert(lines.head == """{"i":1}""")
    assert(!dir.listFiles().exists(_.getName.startsWith("_tmp_")), "no partial files remain")
  }

  test("FileBridge only bridges matching topics") {
    val dir = Files.createTempDirectory("bridge-test2").toFile
    val b = new Broker
    val bridge = new FileBridge(b, "up/#", dir, rollEvery = 100)
    b.publish("up/dev", """{"keep":1}""")
    b.publish("status/dev", """{"drop":1}""")
    bridge.close()
    val lines = dir.listFiles().filter(_.getName.startsWith("bridge_"))
      .flatMap(f => Files.readAllLines(f.toPath).asScala)
    assert(lines.toSeq == Seq("""{"keep":1}"""))
  }

  test("concurrent publishers do not lose messages") {
    val b = new Broker
    val got = new java.util.concurrent.atomic.AtomicInteger(0)
    b.subscribe("c/#") { (_, _) => got.incrementAndGet() }
    val threads = (1 to 4).map { t =>
      new Thread(() => (1 to 250).foreach(i => b.publish(s"c/$t", i.toString)))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(got.get() == 1000)
    assert(b.publishedCount == 1000)
  }
}
